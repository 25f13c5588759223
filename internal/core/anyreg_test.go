package core

import (
	"errors"
	"testing"
	"time"
)

// TestReceiveAnyLeavesNoRegistration checks that ReceiveAny's transient
// selector unregisters from every circuit it watched, whichever way the
// call ends: a delivery, a timeout, the close of one connection while
// parked, or Shutdown. A leaked entry would keep a dead selector on the
// circuit's waiter list, to be fired by every later send.
func TestReceiveAnyLeavesNoRegistration(t *testing.T) {
	buf := make([]byte, 8)
	// parkThen runs ReceiveAny in the background, lets it park, applies
	// act, and returns the call's error.
	parkThen := func(f *Facility, ids []ID, act func()) error {
		errc := make(chan error, 1)
		go func() {
			_, _, err := f.ReceiveAny(1, ids, make([]byte, 8))
			errc <- err
		}()
		time.Sleep(20 * time.Millisecond)
		act()
		select {
		case err := <-errc:
			return err
		case <-time.After(closeRacePatience):
			return errors.New("ReceiveAny still parked")
		}
	}
	cases := []struct {
		name string
		run  func(f *Facility, sa, ra, rb ID, ids []ID) error
		want error
	}{
		{"delivery", func(f *Facility, sa, _, _ ID, ids []ID) error {
			if err := f.Send(0, sa, []byte("x")); err != nil {
				return err
			}
			_, _, err := f.ReceiveAny(1, ids, buf)
			return err
		}, nil},
		{"timeout", func(f *Facility, _, _, _ ID, ids []ID) error {
			_, _, err := f.ReceiveAnyDeadline(1, ids, buf, 10*time.Millisecond)
			return err
		}, ErrTimeout},
		{"close-while-parked", func(f *Facility, _, _, rb ID, ids []ID) error {
			return parkThen(f, ids, func() {
				if err := f.CloseReceive(1, rb); err != nil {
					t.Error(err)
				}
			})
		}, ErrNotConnected},
		{"shutdown", func(f *Facility, _, _, _ ID, ids []ID) error {
			return parkThen(f, ids, f.Shutdown)
		}, ErrShutdown},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFac(t)
			sa, _ := f.OpenSend(0, "reg-a")
			sb, _ := f.OpenSend(0, "reg-b")
			ra, _ := f.OpenReceive(1, "reg-a", FCFS)
			rb, _ := f.OpenReceive(1, "reg-b", FCFS)
			// A repeated id is accepted; it must not leave a second entry.
			ids := []ID{ra, rb, ra}
			if err := c.run(f, sa, ra, rb, ids); !errors.Is(err, c.want) {
				t.Fatalf("ReceiveAny returned %v, want %v", err, c.want)
			}
			for _, id := range []ID{ra, rb} {
				l := f.slots[id].Load()
				l.lock.Lock()
				n := len(l.waiters)
				l.lock.Unlock()
				if n != 0 {
					t.Errorf("circuit %d keeps %d waiter registrations after ReceiveAny returned", id, n)
				}
			}
			before := f.Stats().MuxWakeups
			_ = f.Send(0, sa, []byte("y"))
			_ = f.Send(0, sb, []byte("z"))
			if after := f.Stats().MuxWakeups; after != before {
				t.Errorf("a send after ReceiveAny returned woke a waiter: MuxWakeups %d -> %d", before, after)
			}
		})
	}
}
