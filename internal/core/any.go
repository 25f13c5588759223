package core

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// ReceiveAny consumes the next message available on any of the given
// LNVCs for pid, blocking until one arrives. It returns the index into
// ids of the circuit that delivered, and the byte count. Fairness is
// round-robin across calls: the scan starts after the circuit that
// delivered last time, so a busy circuit cannot starve its siblings.
//
// The paper's MPF has no multi-circuit wait; programs polled with
// check_receive (the random benchmark's structure). ReceiveAny is the
// blocking equivalent, built on a transient Selector: it adds every
// circuit (a repeated id is accepted once), waits, receives from the
// ready circuits with the atomic TryReceive claim in round-robin order,
// and closes the selector on return. Only a Send on one of *these*
// circuits — or a close that affects them — wakes it.
//
// A CloseReceive on one of the circuits (or facility Shutdown) while
// parked wakes the call, which then returns ErrNotConnected (resp.
// ErrShutdown) rather than hanging.
func (f *Facility) ReceiveAny(pid int, ids []ID, buf []byte) (int, int, error) {
	return f.receiveAny(pid, ids, buf, nil)
}

// ReceiveAnyDeadline is ReceiveAny bounded by d; it returns ErrTimeout
// if no circuit delivers in time.
func (f *Facility) ReceiveAnyDeadline(pid int, ids []ID, buf []byte, d time.Duration) (int, int, error) {
	if d <= 0 {
		return 0, 0, fmt.Errorf("%w: non-positive deadline %v", ErrTimeout, d)
	}
	deadline := time.Now().Add(d)
	return f.receiveAny(pid, ids, buf, &deadline)
}

func (f *Facility) receiveAny(pid int, ids []ID, buf []byte, deadline *time.Time) (int, int, error) {
	s, err := f.NewSelector(pid)
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	if len(ids) == 0 {
		return 0, 0, fmt.Errorf("%w: ReceiveAny with no circuits", ErrBadLNVC)
	}
	// Registration before the first poll closes the wakeup race: Add
	// marks a circuit that already holds a message ready, and a message
	// enqueued later fires the registration.
	for _, id := range ids {
		if err := s.Add(id); err != nil && !errors.Is(err, ErrAlreadyOpen) {
			return 0, 0, err
		}
	}
	start := f.anyStart(pid, len(ids))
	for {
		ready, err := s.wait(deadline)
		if err != nil {
			return 0, 0, err
		}
		for k := range ids {
			i := (start + k) % len(ids)
			if !slices.Contains(ready, ids[i]) {
				continue
			}
			// A sibling FCFS receiver may claim first: then the circuit
			// is simply not ready any more and the next wait says so.
			n, ok, err := f.receive(pid, ids[i], buf, false, nil)
			if err != nil {
				return 0, 0, err
			}
			if ok {
				f.setAnyStart(pid, i+1)
				f.trace(Event{Op: OpReceive, PID: pid, LNVC: ids[i], Bytes: n})
				return i, n, nil
			}
		}
	}
}

// anyStart and setAnyStart keep per-process round-robin cursors for
// ReceiveAny fairness.
func (f *Facility) anyStart(pid, n int) int {
	f.anyMu.Lock()
	defer f.anyMu.Unlock()
	if f.anyCursor == nil {
		f.anyCursor = make(map[int]int)
	}
	return f.anyCursor[pid] % n
}

func (f *Facility) setAnyStart(pid, v int) {
	f.anyMu.Lock()
	defer f.anyMu.Unlock()
	if f.anyCursor == nil {
		f.anyCursor = make(map[int]int)
	}
	f.anyCursor[pid] = v
}
