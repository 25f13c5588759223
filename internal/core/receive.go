package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/msg"
)

// The receive half of the facility. Every circuit receive — Receive,
// TryReceive, ReceiveView, TryReceiveView, ReceiveBatch — runs through
// claimWait: validate the receive connection, wait under the circuit
// lock until a message is deliverable (or not at all, for the Try
// forms), and claim up to k messages under that one hold with
// claimUpToLocked. The selector's harvest claims through the same
// helper. The wrappers differ only in what they do with the claim:
// Receive and TryReceive copy one message out (copyOut), ReceiveBatch
// copies each into its buffer and unpins them together, and the view
// receives hand the pinned messages back as Views.

// Receive blocks until a message is available for pid's connection, then
// copies it into buf and returns the number of bytes transferred (paper
// §2, message_receive; the copy is truncated to len(buf)).
func (f *Facility) Receive(pid int, id ID, buf []byte) (int, error) {
	n, _, err := f.receive(pid, id, buf, true, nil)
	f.trace(Event{Op: OpReceive, PID: pid, LNVC: id, Bytes: n, Err: err})
	return n, err
}

// ReceiveDeadline is Receive with a bound on the wait: if no message
// becomes available within d it returns ErrTimeout. The original MPF had
// no timed receive (check_receive plus polling was the idiom); this is
// the blocking-with-deadline variant a modern caller expects, and the
// examples use it to turn potential deadlocks into diagnosable errors.
func (f *Facility) ReceiveDeadline(pid int, id ID, buf []byte, d time.Duration) (int, error) {
	if d <= 0 {
		return 0, fmt.Errorf("%w: non-positive deadline %v", ErrTimeout, d)
	}
	deadline := time.Now().Add(d)
	n, _, err := f.receive(pid, id, buf, true, &deadline)
	f.trace(Event{Op: OpReceive, PID: pid, LNVC: id, Bytes: n, Err: err})
	return n, err
}

// TryReceive is the non-blocking receive: if a message is available for
// pid's connection it is consumed exactly as by Receive and TryReceive
// reports (n, true); otherwise it returns (0, false) immediately. It is
// the atomic alternative to the check_receive-then-message_receive pair,
// which the paper warns is racy for FCFS receivers ("another process
// with a FCFS receive connection may acquire the message before the
// checking process can receive the message").
func (f *Facility) TryReceive(pid int, id ID, buf []byte) (int, bool, error) {
	n, ok, err := f.receive(pid, id, buf, false, nil)
	ev := Event{Op: OpTryReceive, PID: pid, LNVC: id, Err: err}
	if ok {
		ev.Bytes = n
	}
	f.trace(ev)
	return n, ok, err
}

// receive is the copying receives' claim: the claim core's single
// claim, taking the message off the queue when no one else needs it,
// copied out. ok is false when a no-wait call finds nothing.
func (f *Facility) receive(pid int, id ID, buf []byte, wait bool, deadline *time.Time) (int, bool, error) {
	var one [1]*msg.Message
	c, n, err := f.claimWait(pid, id, one[:], true, wait, deadline)
	if err != nil || n == 0 {
		return 0, false, err
	}
	return f.copyOut(c, buf), true, nil
}

// copyOut makes the second of the paper's two copies — blocks → user
// buffer — for a copying receive's claim and then ends the claim. The
// copy happens outside the circuit lock, under the pin or with the
// message already off the queue, so BROADCAST receivers proceed
// concurrently.
func (f *Facility) copyOut(c claim, buf []byte) int {
	n := f.pool.Extract(c.m, buf)
	f.stats.payloadCopiesOut.Add(1)
	if c.owned {
		// The claim dequeued the message: no receiver can reach it, so
		// its blocks go straight back without re-taking the circuit
		// lock. A credited circuit is granted the blocks through the
		// generation-checked refund, which ignores a circuit that died
		// meanwhile (its ledger was zeroed then).
		blocks := c.m.Blocks
		f.pool.Release(c.m)
		f.refundCredit(c.l, c.gen, blocks)
	} else {
		f.unpin(c.l, c.m)
	}
	f.stats.receives.Add(1)
	f.stats.bytesRecvd.Add(uint64(n))
	return n
}

// claim is a claimed message and the circuit it was claimed from. A
// pinned claim leaves the message in the queue and owes one unpin; an
// owned claim took it off the queue, and the holder releases it.
type claim struct {
	l     *lnvc
	m     *msg.Message
	gen   uint64 // the circuit's generation at the claim
	owned bool
}

// claimWait is the one wait-and-claim loop. It validates pid's receive
// connection on id and, when wait is set, waits until a message is
// deliverable; then it claims up to len(into) messages under the same
// lock hold. The returned claim carries the circuit, its generation and
// the first message; n counts the messages written to into, and is 0
// only for a no-wait call that found nothing or an empty into.
// deadline, when non-nil, bounds the wait (ErrTimeout). A waiting call
// observes Shutdown (ErrShutdown) and the close of its own connection
// (ErrNotConnected) promptly: both broadcast the condition and move the
// publish word.
//
// A connection whose receives usually find the queue empty (the gate,
// noteWait) first spins on the publish word outside the lock before it
// parks on the condition. The spin ends like a spurious wakeup: the
// call relocks and re-runs every check, so the lost-wakeup argument is
// the park's alone.
func (f *Facility) claimWait(pid int, id ID, into []*msg.Message, take, wait bool, deadline *time.Time) (c claim, n int, err error) {
	if err := f.checkPID(pid); err != nil {
		return claim{}, 0, err
	}
	if f.stopped.Load() {
		return claim{}, 0, ErrShutdown
	}
	l, err := f.lookup(id)
	if err != nil {
		return claim{}, 0, err
	}
	l.lock.Lock()
	d := l.recvs[pid]
	if f.slots[id].Load() != l || d == nil {
		l.lock.Unlock()
		return claim{}, 0, recvNotConnected(id, pid)
	}
	c = claim{l: l, gen: l.gen}
	var wake *deadlineWake
	waited, spun := false, false
	for {
		// Shutdown and the close are re-checked under the lock on every
		// round: both set their state before broadcasting, so a check
		// here cannot miss a wakeup that has already been spent.
		if f.stopped.Load() {
			err = ErrShutdown
			break
		}
		if l.recvs[pid] != d {
			err = recvNotConnected(id, pid)
			break
		}
		if n, c.owned = l.claimUpToLocked(d, into, take); n > 0 || !wait || len(into) == 0 {
			break
		}
		if deadline != nil && (wake != nil && wake.fired || !time.Now().Before(*deadline)) {
			err = ErrTimeout
			break
		}
		waited = true
		if !spun && d.waitAvg > spinGate {
			spun = true
			seen := l.pub.Load()
			l.lock.Unlock()
			spinPublish(&l.pub, seen, deadline)
			l.lock.Lock()
			continue
		}
		// The timer is armed under the lock, so its broadcast cannot
		// land before this Wait releases it.
		if deadline != nil && wake == nil {
			wake = armDeadline(l, *deadline)
		}
		l.cond.Wait()
	}
	if wait && l.recvs[pid] == d {
		d.noteWait(waited)
	}
	if wake != nil {
		wake.timer.Stop()
	}
	l.lock.Unlock()
	if err != nil {
		return claim{}, 0, err
	}
	if waited {
		f.stats.receiveWaits.Add(1)
	}
	if n > 0 {
		c.m = into[0]
	}
	return c, n, nil
}

// The pre-park spin (DESIGN.md §6 has the measurements). A parked
// receive's thread sleeps, and the next publish pays to wake it; on a
// chain of small messages that wake is most of each hop. spinRounds
// rounds of spinLoads loads of the publish word catch a message that
// is close. The yield between rounds hands the P to the goroutine the
// receiver's own send just readied, which a busy spin would starve.
// Only a connection whose blocking receives mostly wait (waitAvg above
// spinGate) spins; a streaming consumer's rare waits park.
const (
	spinRounds = 64
	spinLoads  = 32

	// waitAvg is a moving average of 0/1 wait samples in 1/waitAvgOne
	// units with weight 1/2^waitAvgShift on the newest sample; a
	// connection spins once the average exceeds 5/8.
	waitAvgOne   = 256
	waitAvgShift = 3
	spinGate     = waitAvgOne * 5 / 8
)

// noteWait folds one blocking receive's outcome — it had to wait or
// not — into the connection's spin gate. Called under the LNVC lock.
func (d *recvDesc) noteWait(waited bool) {
	d.waitAvg -= d.waitAvg >> waitAvgShift
	if waited {
		d.waitAvg += waitAvgOne >> waitAvgShift
	}
}

// spinPublish polls pub until it moves off seen, the spin budget runs
// out or the deadline (when non-nil) passes. The caller re-checks
// everything under the lock either way.
func spinPublish(pub *atomic.Uint64, seen uint64, deadline *time.Time) {
	for r := 0; r < spinRounds; r++ {
		for i := 0; i < spinLoads; i++ {
			if pub.Load() != seen {
				return
			}
		}
		if deadline != nil && !time.Now().Before(*deadline) {
			return
		}
		runtime.Gosched()
	}
}

func recvNotConnected(id ID, pid int) error {
	return fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
}

// deadlineWake bounds a receive's park on an LNVC condition: its timer
// broadcasts the condition at the deadline so the waiter re-evaluates.
// fired is read and written only under the LNVC lock.
type deadlineWake struct {
	timer *time.Timer
	fired bool
}

// armDeadline starts the timer for a park on l that ends at deadline.
// Only a receive that still has to park after its spin pays for it.
func armDeadline(l *lnvc, deadline time.Time) *deadlineWake {
	w := &deadlineWake{}
	w.timer = time.AfterFunc(time.Until(deadline), func() {
		l.lock.Lock()
		w.fired = true
		l.broadcastLocked()
		l.lock.Unlock()
	})
	return w
}

// claimUpToLocked claims up to len(into) messages deliverable to d, in
// FIFO order, under the caller's hold of l.lock, and returns how many it
// wrote to into. It is the only place a claim is made: single receives
// pass one slot, ReceiveBatch one per buffer, the selector harvest its
// share of the round's budget. take is claimLocked's and is meant for a
// single slot; owned reports the last claim's dequeue.
func (l *lnvc) claimUpToLocked(d *recvDesc, into []*msg.Message, take bool) (n int, owned bool) {
	for n < len(into) {
		m := l.availableLocked(d)
		if m == nil {
			break
		}
		owned = l.claimLocked(d, m, take)
		into[n] = m
		n++
	}
	return n, owned
}

// claimLocked consumes m for receiver d — for FCFS the claim (advancing
// the shared head) must happen under the lock or two FCFS receivers
// could take the same message; for BROADCAST it advances the private
// head and releases the Pending reference.
//
// With take set, an FCFS claim that leaves m needed by no one — m is
// the queue head, no BROADCAST receiver still needs it and no pin is
// held on it — dequeues m and reports true: the claimer owns it and
// releases it after its copy, with no second visit to the circuit.
// Every other claim pins m. The pin is what keeps the blocks alive
// while the holder reads them outside the lock, whether for a copy of
// a shared message or for a held View; a pinned message is never
// recycled (reclaimLocked skips it, the close path orphans it to the
// pin holders instead of releasing it).
func (l *lnvc) claimLocked(d *recvDesc, m *msg.Message, take bool) bool {
	if d.proto == FCFS {
		m.FCFSNeeded = false
		l.fcfsHeadSeq = m.Seq + 1
		if take && m.Pending == 0 && m.Pins == 0 && l.queue.Head() == m {
			l.queue.Remove(m, nil)
			return true
		}
	} else {
		d.headSeq = m.Seq + 1
		m.Pending--
	}
	m.Pins++
	return false
}

// unpin drops one pin taken by claimLocked. For a message still owned
// by its circuit this may make it reclaimable, so the reclaim scan
// runs; for an orphan — dropped from a deleted circuit while pinned —
// the last pin holder releases the blocks directly (the message is in
// no queue; l may even have been recycled for another circuit, which
// is safe because only m's own fields and the pool are touched).
func (f *Facility) unpin(l *lnvc, m *msg.Message) {
	l.lock.Lock()
	m.Pins--
	if m.Orphan {
		release := m.Pins == 0
		l.lock.Unlock()
		if release {
			f.pool.Release(m)
		}
		return
	}
	f.reclaimLocked(l)
	l.lock.Unlock()
}

// unpinAll is unpin for a batch claimed from one circuit: one lock
// acquisition, one reclaim scan. Orphans are collected and released
// outside the lock.
func (f *Facility) unpinAll(l *lnvc, ms []*msg.Message) {
	var orphans []*msg.Message
	l.lock.Lock()
	anyLive := false
	for _, m := range ms {
		m.Pins--
		if m.Orphan {
			if m.Pins == 0 {
				orphans = append(orphans, m)
			}
		} else {
			anyLive = true
		}
	}
	if anyLive {
		f.reclaimLocked(l)
	}
	l.lock.Unlock()
	f.pool.ReleaseBatch(orphans)
}

// availableLocked returns the next message deliverable to d, or nil.
func (l *lnvc) availableLocked(d *recvDesc) *msg.Message {
	if d.proto == FCFS {
		// The first message not yet FCFS-consumed. Messages below the
		// shared head have FCFSNeeded cleared, so scanning from the
		// queue head for FCFSNeeded is equivalent to following the
		// shared head pointer; the queue head is almost always it.
		for m := l.queue.Head(); m != nil; m = m.Next {
			if m.FCFSNeeded && m.Seq >= l.fcfsHeadSeq {
				return m
			}
		}
		return nil
	}
	return l.queue.After(d.headSeq)
}

// CheckReceive reports whether a message is currently available for pid's
// receive connection (paper §2, check_receive). For FCFS connections the
// answer is advisory: another FCFS receiver may claim the message first,
// exactly the caveat the paper gives.
func (f *Facility) CheckReceive(pid int, id ID) (bool, error) {
	ok, err := f.checkReceive(pid, id)
	f.trace(Event{Op: OpCheckReceive, PID: pid, LNVC: id, Err: err})
	return ok, err
}

func (f *Facility) checkReceive(pid int, id ID) (bool, error) {
	if err := f.checkPID(pid); err != nil {
		return false, err
	}
	l, err := f.lookup(id)
	if err != nil {
		return false, err
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	d := l.recvs[pid]
	if f.slots[id].Load() != l || d == nil {
		return false, recvNotConnected(id, pid)
	}
	f.stats.checks.Add(1)
	return l.availableLocked(d) != nil, nil
}
