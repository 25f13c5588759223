package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the pre-park spin in claimWait: the gate that decides which
// connections spin, and that a spinning receive keeps every promise a
// parked one makes.

// recvGate returns pid's receive descriptor on id, read under the
// circuit lock, for reading or forcing its spin gate.
func recvGate(t *testing.T, f *Facility, id ID, pid int, set func(*recvDesc)) int32 {
	t.Helper()
	l, err := f.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	d := l.recvs[pid]
	if d == nil {
		t.Fatalf("process %d has no receive connection on %d", pid, id)
	}
	if set != nil {
		set(d)
	}
	return d.waitAvg
}

// openGate forces the gate open, as a connection that waited on every
// recent receive would have it.
func openGate(d *recvDesc) { d.waitAvg = waitAvgOne }

// waitedReceive receives one message that is sent only after the
// receive has had time to find the queue empty.
func waitedReceive(t *testing.T, f *Facility, sid, rid ID, buf []byte) {
	t.Helper()
	sent := make(chan error, 1)
	go func() {
		time.Sleep(time.Millisecond)
		sent <- f.Send(0, sid, []byte{1})
	}()
	if _, err := f.Receive(1, rid, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func TestSpinGateFollowsWaits(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "gate")
	rid, _ := f.OpenReceive(1, "gate", FCFS)
	buf := make([]byte, 8)

	// A streaming consumer: the queue is full whenever it receives.
	for i := 0; i < 64; i++ {
		if err := f.Send(0, sid, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if _, err := f.Receive(1, rid, buf); err != nil {
			t.Fatal(err)
		}
	}
	if g := recvGate(t, f, rid, 1, nil); g != 0 {
		t.Fatalf("gate %d after 64 receives that never waited, want 0", g)
	}

	// A consumer that waits on one receive in four stays below the
	// gate before every one of those waits: it parks and never spins.
	for round := 0; round < 16; round++ {
		for i := 0; i < 3; i++ {
			if err := f.Send(0, sid, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Receive(1, rid, buf); err != nil {
				t.Fatal(err)
			}
		}
		if g := recvGate(t, f, rid, 1, nil); g > spinGate {
			t.Fatalf("round %d: gate %d above %d on a connection that waits one receive in four",
				round, g, spinGate)
		}
		waitedReceive(t, f, sid, rid, buf)
	}

	// A request/response chain waits on every receive and opens the
	// gate within a few hops.
	for i := 0; i < 16; i++ {
		waitedReceive(t, f, sid, rid, buf)
	}
	if g := recvGate(t, f, rid, 1, nil); g <= spinGate {
		t.Fatalf("gate %d not above %d after 16 receives that all waited", g, spinGate)
	}
	// TryReceive never waits and leaves the gate alone.
	f.TryReceive(1, rid, buf)
	if g := recvGate(t, f, rid, 1, nil); g <= spinGate {
		t.Fatalf("TryReceive moved the gate to %d", g)
	}
}

// spinUnderHog runs receive in a spinning receive on a one-P runtime
// beside a CPU-bound goroutine, calls event once the receive is in its
// spin, and returns the receive's error and how long it took to return
// after event. Every yield of the spin waits out a scheduler time
// slice of the hog here, so the full spin budget lasts far longer than
// the bound the callers assert: a prompt return means the spin itself
// observed the event.
func spinUnderHog(t *testing.T, receive func() error, event func()) (error, time.Duration) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stop atomic.Bool
	hogDone := make(chan struct{})
	go func() {
		defer close(hogDone)
		for n := 0; !stop.Load(); n++ {
		}
	}()
	defer func() { stop.Store(true); <-hogDone }()

	type result struct {
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		err := receive()
		done <- result{err, time.Now()}
	}()
	time.Sleep(30 * time.Millisecond)
	at := time.Now()
	event()
	select {
	case r := <-done:
		return r.err, r.at.Sub(at)
	case <-time.After(10 * time.Second):
		t.Fatal("spinning receive never returned")
		return nil, 0
	}
}

// promptBound is well under the spin budget's length beside the hog
// (spinRounds scheduler slices, ≥ 640 ms) and well over the one or two
// slices a spin that observes its event needs.
const promptBound = 300 * time.Millisecond

func TestSpinObservesCloseReceive(t *testing.T) {
	f := newFac(t)
	f.OpenSend(0, "spin-close")
	rid, _ := f.OpenReceive(1, "spin-close", FCFS)
	recvGate(t, f, rid, 1, openGate)
	err, took := spinUnderHog(t,
		func() error { _, err := f.Receive(1, rid, make([]byte, 8)); return err },
		func() {
			if err := f.CloseReceive(1, rid); err != nil {
				t.Error(err)
			}
		})
	if !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
	if took > promptBound {
		t.Fatalf("spinning receive returned %v after its close, want under %v", took, promptBound)
	}
}

func TestSpinObservesShutdown(t *testing.T) {
	f := newFac(t)
	f.OpenSend(0, "spin-shutdown")
	rid, _ := f.OpenReceive(1, "spin-shutdown", FCFS)
	recvGate(t, f, rid, 1, openGate)
	err, took := spinUnderHog(t,
		func() error { _, err := f.Receive(1, rid, make([]byte, 8)); return err },
		f.Shutdown)
	if !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v, want ErrShutdown", err)
	}
	if took > promptBound {
		t.Fatalf("spinning receive returned %v after Shutdown, want under %v", took, promptBound)
	}
}

func TestSpinObservesDeadline(t *testing.T) {
	f := newFac(t)
	f.OpenSend(0, "spin-deadline")
	rid, _ := f.OpenReceive(1, "spin-deadline", FCFS)
	recvGate(t, f, rid, 1, openGate)
	// The deadline passes 20 ms into the spin; no event wakes it.
	err, took := spinUnderHog(t,
		func() error {
			_, err := f.ReceiveDeadline(1, rid, make([]byte, 8), 50*time.Millisecond)
			return err
		},
		func() {})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took > promptBound {
		t.Fatalf("spinning ReceiveDeadline returned %v after the spin began, want under %v past its 50 ms deadline",
			took, promptBound)
	}
}

func TestSpinFCFSExactlyOnceInOrder(t *testing.T) {
	f := newFac(t)
	const n = 4000
	sid, _ := f.OpenSend(0, "spin-fcfs")
	rids := [2]ID{}
	for i := range rids {
		rids[i], _ = f.OpenReceive(1+i, "spin-fcfs", FCFS)
		recvGate(t, f, rids[i], 1+i, openGate)
	}
	got := [2][]int{}
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := range rids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for {
				k, err := f.Receive(1+i, rids[i], buf)
				if err != nil {
					errs <- err
					return
				}
				if k == 1 {
					return // the sentinel: the sender is done
				}
				if k != 4 {
					errs <- fmt.Errorf("receiver %d: %d-byte message", i, k)
					return
				}
				got[i] = append(got[i], int(buf[0])|int(buf[1])<<8|int(buf[2])<<16|int(buf[3])<<24)
			}
		}(i)
	}
	waits0 := f.Stats().ReceiveWaits
	for seq := 0; seq < n; seq++ {
		if err := f.Send(0, sid, []byte{byte(seq), byte(seq >> 8), byte(seq >> 16), byte(seq >> 24)}); err != nil {
			t.Fatal(err)
		}
		if seq%4 == 3 {
			// Let the queue drain so the receivers wait, and spin.
			runtime.Gosched()
		}
	}
	for range rids {
		if err := f.Send(0, sid, []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if f.Stats().ReceiveWaits == waits0 {
		t.Fatal("no receive waited: the spin path was not exercised")
	}
	seen := make([]bool, n)
	for i, seqs := range got {
		for j, seq := range seqs {
			if j > 0 && seq <= seqs[j-1] {
				t.Fatalf("receiver %d got %d after %d: FCFS order broken", i, seq, seqs[j-1])
			}
			if seen[seq] {
				t.Fatalf("message %d delivered twice", seq)
			}
			seen[seq] = true
		}
	}
	for seq, ok := range seen {
		if !ok {
			t.Fatalf("message %d never delivered (receivers got %d and %d)", seq, len(got[0]), len(got[1]))
		}
	}
}
