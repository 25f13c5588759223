package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/spinlock"
)

// sendDesc is a send connection (paper §3.1: "send descriptors ... contain
// the process identifier of the connected process").
type sendDesc struct {
	pid int
}

// recvDesc is a receive connection. BROADCAST receivers carry their
// private FIFO head as a sequence number; FCFS receivers use the LNVC's
// shared head.
type recvDesc struct {
	pid     int
	proto   Protocol
	headSeq uint64 // BROADCAST only: next sequence this receiver consumes
}

// lnvc is an LNVC descriptor (paper Figure 2). All mutable fields are
// guarded by lock; name is additionally written only under the owning
// shard's write lock (reset), which is what lets the close path read it
// under that same shard lock.
type lnvc struct {
	name string
	id   ID
	// shard is the registry shard this descriptor belongs to. It is
	// immutable: descriptors recycle only through their own shard's
	// free list, so every name this descriptor ever carries hashes
	// here.
	shard uint32

	// The circuit lock is the hottest word in the facility — every
	// send, receive, harvest and wake spins on it — so it gets a cache
	// line to itself (24-byte TAS + 40 pad): a reader walking the cold
	// descriptor fields below must not invalidate the line senders are
	// spinning on. Asserted by TestHotWordLayout.
	lock spinlock.TAS
	_    [40]byte

	cond *sync.Cond // signalled on enqueue and shutdown

	queue       msg.Queue
	fcfsHeadSeq uint64 // shared FCFS head: next sequence FCFS may consume

	sends  map[int]*sendDesc
	recvs  map[int]*recvDesc
	nFCFS  int // count of FCFS receive connections
	nBcast int // count of BROADCAST receive connections

	// waiters are the parked multiplexer registrations (ReceiveAny
	// parks, Selector memberships) on this circuit; enqueue and close
	// wake exactly these (see waiter.go). gen counts descriptor
	// incarnations: reset bumps it, and selectors compare it so a
	// registration on a dead circuit can never be satisfied by a new
	// circuit that recycled both the descriptor and the id (the ABA
	// the registry free lists would otherwise permit).
	waiters []*muxWaiter
	gen     uint64

	// The credit ledger (credit.go). creditUsed is the number of
	// accounted blocks debited by senders and not yet re-granted;
	// creditWaiters are the senders parked until the budget can cover
	// them. Both guarded by lock; both meaningful only when
	// Config.CreditBlocks > 0.
	// creditUsed sits on its own line: it is debited on every credited
	// send and re-granted on every release, and without the pad it
	// would share a line with the waiter slice header that parked
	// senders and granting receivers both touch. Asserted by
	// TestHotWordLayout.
	creditUsed    int32
	_             [60]byte
	creditWaiters []*creditWaiter

	// descriptor free lists, per paper §3.1 ("Like message blocks, LNVC,
	// send, and receive descriptors are linked into free lists when not
	// in use").
	sendFree []*sendDesc
	recvFree []*recvDesc
}

func newLNVC(name string, id ID, shard uint32) *lnvc {
	l := &lnvc{
		name:  name,
		id:    id,
		shard: shard,
		sends: make(map[int]*sendDesc),
		recvs: make(map[int]*recvDesc),
	}
	l.cond = sync.NewCond(&l.lock)
	return l
}

// reset prepares a recycled descriptor for reuse.
func (l *lnvc) reset(name string, id ID) {
	l.name = name
	l.id = id
	l.queue = msg.Queue{}
	l.fcfsHeadSeq = 0
	clear(l.sends)
	clear(l.recvs)
	l.nFCFS, l.nBcast = 0, 0
	// Stale registrations from the descriptor's previous life are
	// dropped: their owners were woken at deletion and unregister by
	// identity, which tolerates the entry already being gone. The
	// generation bump invalidates any selector registration that still
	// names this descriptor.
	clear(l.waiters)
	l.waiters = l.waiters[:0]
	// Credit state died with the previous circuit (the close path's
	// deletion branch zeroed the ledger and woke the waiters, who
	// unregister by identity); the fresh incarnation starts unencumbered.
	l.creditUsed = 0
	clear(l.creditWaiters)
	l.creditWaiters = l.creditWaiters[:0]
	l.gen++
}

func (l *lnvc) connections() int { return len(l.sends) + len(l.recvs) }

func (l *lnvc) getSendDesc(pid int) *sendDesc {
	if n := len(l.sendFree); n > 0 {
		d := l.sendFree[n-1]
		l.sendFree = l.sendFree[:n-1]
		d.pid = pid
		return d
	}
	return &sendDesc{pid: pid}
}

func (l *lnvc) putSendDesc(d *sendDesc) { l.sendFree = append(l.sendFree, d) }

func (l *lnvc) getRecvDesc(pid int, proto Protocol, head uint64) *recvDesc {
	if n := len(l.recvFree); n > 0 {
		d := l.recvFree[n-1]
		l.recvFree = l.recvFree[:n-1]
		*d = recvDesc{pid: pid, proto: proto, headSeq: head}
		return d
	}
	return &recvDesc{pid: pid, proto: proto, headSeq: head}
}

func (l *lnvc) putRecvDesc(d *recvDesc) { l.recvFree = append(l.recvFree, d) }

// OpenSend establishes a send connection for pid on the LNVC called name,
// creating the LNVC if necessary, and returns its internal identifier.
func (f *Facility) OpenSend(pid int, name string) (ID, error) {
	id, err := f.open(pid, name, func(l *lnvc) error {
		if _, dup := l.sends[pid]; dup {
			return fmt.Errorf("%w: send on %q by process %d", ErrAlreadyOpen, name, pid)
		}
		l.sends[pid] = l.getSendDesc(pid)
		return nil
	})
	f.trace(Event{Op: OpOpenSend, PID: pid, LNVC: id, Name: name, Err: err})
	return id, err
}

// OpenReceive establishes a receive connection with the given protocol
// for pid on the LNVC called name, creating the LNVC if necessary.
func (f *Facility) OpenReceive(pid int, name string, proto Protocol) (ID, error) {
	if proto != FCFS && proto != Broadcast {
		return -1, fmt.Errorf("mpf: unknown protocol %d", proto)
	}
	id, err := f.open(pid, name, func(l *lnvc) error {
		if _, dup := l.recvs[pid]; dup {
			// Also covers the paper's rule that one process cannot hold
			// both FCFS and BROADCAST connections on one LNVC.
			return fmt.Errorf("%w: receive on %q by process %d", ErrAlreadyOpen, name, pid)
		}
		head := l.queue.NextSeq()
		if proto == Broadcast {
			if l.connections() == len(l.sends) && l.queue.Len() > 0 {
				// First receiver on a circuit with a retained backlog:
				// inherit it (rule 5 in the package comment).
				head = l.queue.Head().Seq
				l.queue.Walk(func(m, _ *msg.Message) bool {
					m.Pending++
					m.FCFSNeeded = false
					return true
				})
			}
		}
		l.recvs[pid] = l.getRecvDesc(pid, proto, head)
		if proto == FCFS {
			l.nFCFS++
		} else {
			l.nBcast++
		}
		return nil
	})
	f.trace(Event{Op: OpOpenReceive, PID: pid, LNVC: id, Name: name, Err: err})
	return id, err
}

// open is the shared find-or-create path for both open primitives.
// attach runs under both the shard's write lock and the LNVC lock. Only
// the shard that name hashes to is locked, so opens on circuits in
// different shards proceed concurrently.
func (f *Facility) open(pid int, name string, attach func(*lnvc) error) (ID, error) {
	if err := f.checkPID(pid); err != nil {
		return -1, err
	}
	if err := checkName(name); err != nil {
		return -1, err
	}
	if f.stopped.Load() {
		return -1, ErrShutdown
	}
	si := f.shardIndex(name)
	s := f.lockShard(si)
	defer s.lock.Unlock()

	id, exists := s.names[name]
	var l *lnvc
	if exists {
		l = f.slots[id].Load()
	} else {
		var ok bool
		id, ok = f.allocID()
		if !ok {
			return -1, fmt.Errorf("%w (max %d)", ErrTooManyLNVCs, f.cfg.MaxLNVCs)
		}
		if n := len(s.lnvcFree); n > 0 {
			l = s.lnvcFree[n-1]
			s.lnvcFree = s.lnvcFree[:n-1]
			// reset mutates fields that stale holders of this
			// descriptor (a Send that looked its old ID up just before
			// deletion) read under the LNVC lock, so it needs that
			// lock too.
			l.lock.Lock()
			l.reset(name, id)
			l.lock.Unlock()
		} else {
			l = newLNVC(name, id, si)
		}
	}

	l.lock.Lock()
	err := attach(l)
	l.lock.Unlock()
	if err != nil {
		if !exists {
			s.lnvcFree = append(s.lnvcFree, l)
			f.freeID(id)
		}
		return -1, err
	}
	if !exists {
		s.names[name] = id
		f.slots[id].Store(l)
		f.stats.lnvcsCreated.Add(1)
	}
	f.stats.opens.Add(1)
	return id, nil
}

// CloseSend removes pid's send connection from the LNVC. If it is the
// last connection the LNVC is deleted and all unread messages discarded.
func (f *Facility) CloseSend(pid int, id ID) error {
	err := f.close(pid, id, func(l *lnvc) error {
		d, ok := l.sends[pid]
		if !ok {
			return fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, id, pid)
		}
		delete(l.sends, pid)
		l.putSendDesc(d)
		return nil
	})
	f.trace(Event{Op: OpCloseSend, PID: pid, LNVC: id, Err: err})
	return err
}

// CloseReceive removes pid's receive connection. A departing BROADCAST
// receiver releases its claim on every message it had not yet consumed
// (the paper's §3.2 reclamation problem); a departing last-FCFS receiver
// releases FCFS claims if other receivers remain. If this was the last
// connection the LNVC is deleted.
func (f *Facility) CloseReceive(pid int, id ID) error {
	err := f.close(pid, id, func(l *lnvc) error {
		d, ok := l.recvs[pid]
		if !ok {
			return fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
		}
		delete(l.recvs, pid)
		if d.proto == FCFS {
			l.nFCFS--
		} else {
			l.nBcast--
			// Release this receiver's claim on unconsumed messages.
			l.queue.Walk(func(m, _ *msg.Message) bool {
				if m.Seq >= d.headSeq && m.Pending > 0 {
					m.Pending--
				}
				return true
			})
		}
		l.putRecvDesc(d)
		f.reclaimLocked(l)
		return nil
	})
	f.trace(Event{Op: OpCloseReceive, PID: pid, LNVC: id, Err: err})
	return err
}

// close is the shared teardown path. detach runs under the descriptor's
// shard lock and the LNVC lock; if it leaves the LNVC with no
// connections, the LNVC is deleted. The descriptor-to-shard binding is
// immutable (descriptors recycle within one shard), so the initial
// lock-free slot load can never direct us to the wrong shard; the
// re-check under the shard lock catches a circuit deleted — and possibly
// recycled — between the load and the lock.
func (f *Facility) close(pid int, id ID, detach func(*lnvc) error) error {
	if err := f.checkPID(pid); err != nil {
		return err
	}
	l, err := f.lookup(id)
	if err != nil {
		return err
	}
	s := f.lockShard(l.shard)
	if f.slots[id].Load() != l {
		s.lock.Unlock()
		return fmt.Errorf("%w: id %d", ErrBadLNVC, id)
	}
	l.lock.Lock()
	err = detach(l)
	if err == nil {
		// A Receive parked on the condition variable, a ReceiveAny
		// parked on the waiter list, a Selector.Wait, or a sender parked
		// for credit must observe a closed connection promptly — never
		// hang until an unrelated send happens by (they re-validate the
		// connection on wake).
		l.cond.Broadcast()
		l.wakeWaitersLocked()
		l.wakeCreditWaitersLocked()
	}
	var drop []*msg.Message
	dropped := 0
	dead := err == nil && l.connections() == 0
	if dead {
		// Collect unread messages for discarding outside the LNVC lock.
		// A message some receiver still holds pinned — a copy in flight
		// or a held View — must survive the circuit: it is orphaned and
		// the last unpin releases it (§5's revised reclamation rule).
		l.queue.Walk(func(m, _ *msg.Message) bool {
			dropped++
			if m.Pins > 0 {
				m.Orphan = true
			} else {
				drop = append(drop, m)
			}
			return true
		})
		l.queue = msg.Queue{}
		// The ledger dies with the circuit: outstanding debits —
		// dropped unread messages, orphans passing to their pin
		// holders, loans still out — return to the facility gauge here
		// (late loan refunds are rejected by the generation check).
		f.dropLedgerLocked(l)
	}
	l.lock.Unlock()
	if err != nil {
		s.lock.Unlock()
		return err
	}
	f.stats.closes.Add(1)
	if dead {
		delete(s.names, l.name)
		f.slots[id].Store(nil)
		s.lnvcFree = append(s.lnvcFree, l)
		f.freeID(id)
		f.stats.lnvcsDeleted.Add(1)
		f.stats.messagesDropped.Add(uint64(dropped))
	}
	s.lock.Unlock()
	if f.cfg.GlobalPulseMux {
		f.pulseActivity()
	}
	f.pool.ReleaseBatch(drop)
	return nil
}

// Send transfers buf asynchronously to the LNVC: the payload is copied
// into chained message blocks and the message is appended to the FIFO
// (paper §2, message_send). The sender proceeds as soon as the copy
// completes.
func (f *Facility) Send(pid int, id ID, buf []byte) error {
	err := f.send(pid, id, buf)
	f.trace(Event{Op: OpSend, PID: pid, LNVC: id, Bytes: len(buf), Err: err})
	return err
}

func (f *Facility) send(pid int, id ID, buf []byte) error {
	if err := f.checkPID(pid); err != nil {
		return err
	}
	if f.stopped.Load() {
		return ErrShutdown
	}
	if f.arena.BlocksFor(len(buf)) > f.arena.NumBlocks() {
		return fmt.Errorf("%w: %d bytes, region holds %d", ErrMessageTooBig, len(buf), f.arena.NumBlocks()*f.arena.PayloadSize())
	}
	l, err := f.lookup(id)
	if err != nil {
		return err
	}
	// Connection check is done before the (possibly blocking) copy so an
	// unconnected sender fails fast, and rechecked after under the lock.
	// With credit configured the check rides along with the debit, which
	// parks here (not holding any lock) until the budget can cover the
	// message.
	var creditGen uint64
	creditBlocks := 0
	if f.cfg.CreditBlocks > 0 {
		creditBlocks = f.arena.BlocksFor(len(buf))
		var err error
		if creditGen, err = f.acquireCredit(l, id, pid, creditBlocks); err != nil {
			return err
		}
	} else {
		l.lock.Lock()
		if f.slots[id].Load() != l || l.sends[pid] == nil {
			l.lock.Unlock()
			return fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, id, pid)
		}
		l.lock.Unlock()
	}

	// First copy: user buffer into message blocks. This happens outside
	// the LNVC lock, which is what lets BROADCAST receivers and other
	// senders proceed concurrently (the concurrency Figure 5 measures).
	m, buildErr := f.pool.Build(pid, buf, f.cfg.SendPolicy == BlockUntilFree, f.stop)
	if buildErr != nil {
		f.refundCredit(l, creditGen, creditBlocks)
		if f.stopped.Load() {
			return ErrShutdown
		}
		return fmt.Errorf("%w: %v", ErrNoMemory, buildErr)
	}

	l.lock.Lock()
	// Re-validate both the connection and the ID binding: the circuit
	// may have been deleted — and its descriptor recycled for another
	// name through the shard free list — while the copy ran.
	if f.slots[id].Load() != l || l.sends[pid] == nil {
		l.lock.Unlock()
		f.pool.Release(m)
		f.refundCredit(l, creditGen, creditBlocks)
		return fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, id, pid)
	}
	m.Pending = l.nBcast
	m.FCFSNeeded = true
	l.queue.Enqueue(m)
	l.cond.Broadcast()
	l.wakeWaitersLocked()
	l.lock.Unlock()
	if f.cfg.GlobalPulseMux {
		f.pulseActivity()
	}

	f.stats.sends.Add(1)
	f.stats.bytesSent.Add(uint64(len(buf)))
	f.stats.payloadCopiesIn.Add(1)
	return nil
}

// Receive blocks until a message is available for pid's connection, then
// copies it into buf and returns the number of bytes transferred (paper
// §2, message_receive; the copy is truncated to len(buf)).
func (f *Facility) Receive(pid int, id ID, buf []byte) (int, error) {
	n, err := f.receive(pid, id, buf, nil)
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
	n, err := f.receive(pid, id, buf, &deadline)
	f.trace(Event{Op: OpReceive, PID: pid, LNVC: id, Bytes: n, Err: err})
	return n, err
}

func (f *Facility) receive(pid int, id ID, buf []byte, deadline *time.Time) (int, error) {
	c, err := f.waitClaim(pid, id, deadline, true)
	if err != nil {
		return 0, err
	}
	return f.copyOut(c, buf), nil
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

// waitClaim blocks until a message is deliverable to pid's connection
// on id and claims it (see claimLocked; take asks for the dequeue a
// copying receive can use). deadline, when non-nil, bounds the wait
// (ErrTimeout).
func (f *Facility) waitClaim(pid int, id ID, deadline *time.Time, take bool) (claim, error) {
	if err := f.checkPID(pid); err != nil {
		return claim{}, err
	}
	l, err := f.lookup(id)
	if err != nil {
		return claim{}, err
	}
	l.lock.Lock()
	d := l.recvs[pid]
	if f.slots[id].Load() != l || d == nil {
		l.lock.Unlock()
		return claim{}, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
	}
	var m *msg.Message
	waited := false
	var wake *deadlineWake
	if deadline != nil {
		wake = armDeadline(l, *deadline)
		defer wake.timer.Stop()
	}
	for {
		if f.stopped.Load() {
			l.lock.Unlock()
			return claim{}, ErrShutdown
		}
		if l.recvs[pid] != d {
			// The connection was closed (CloseReceive from another
			// goroutine) while this receive was parked; the close path
			// broadcast the condition so we see it promptly.
			l.lock.Unlock()
			return claim{}, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
		}
		m = l.availableLocked(d)
		if m != nil {
			break
		}
		if wake != nil && wake.expired(*deadline) {
			l.lock.Unlock()
			return claim{}, ErrTimeout
		}
		waited = true
		l.cond.Wait()
	}
	if waited {
		f.stats.receiveWaits.Add(1)
	}
	c := claim{l: l, m: m, gen: l.gen, owned: l.claimLocked(d, m, take)}
	l.lock.Unlock()
	return c, nil
}

// deadlineWake bounds a receive's park on an LNVC condition: its timer
// broadcasts the condition at the deadline so the waiter re-evaluates.
// fired is read and written only under the LNVC lock.
type deadlineWake struct {
	timer *time.Timer
	fired bool
}

// armDeadline starts the timer for a park on l that ends at deadline.
// Only a receive with a deadline pays for it.
func armDeadline(l *lnvc, deadline time.Time) *deadlineWake {
	w := &deadlineWake{}
	w.timer = time.AfterFunc(time.Until(deadline), func() {
		l.lock.Lock()
		w.fired = true
		l.cond.Broadcast()
		l.lock.Unlock()
	})
	return w
}

// expired reports, under the LNVC lock, whether the deadline passed.
func (w *deadlineWake) expired(deadline time.Time) bool {
	return w.fired || !time.Now().Before(deadline)
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

// TryReceive is the non-blocking receive: if a message is available for
// pid's connection it is consumed exactly as by Receive and TryReceive
// reports (n, true); otherwise it returns (0, false) immediately. It is
// the atomic alternative to the check_receive-then-message_receive pair,
// which the paper warns is racy for FCFS receivers ("another process
// with a FCFS receive connection may acquire the message before the
// checking process can receive the message").
func (f *Facility) TryReceive(pid int, id ID, buf []byte) (int, bool, error) {
	n, ok, err := f.tryReceive(pid, id, buf)
	ev := Event{Op: OpTryReceive, PID: pid, LNVC: id, Err: err}
	if ok {
		ev.Bytes = n
	}
	f.trace(ev)
	return n, ok, err
}

func (f *Facility) tryReceive(pid int, id ID, buf []byte) (int, bool, error) {
	c, ok, err := f.tryClaim(pid, id, true)
	if err != nil || !ok {
		return 0, false, err
	}
	return f.copyOut(c, buf), true, nil
}

// tryClaim is waitClaim's non-blocking form: if a message is deliverable
// it is claimed and ok is true; otherwise ok is false.
func (f *Facility) tryClaim(pid int, id ID, take bool) (claim, bool, error) {
	if err := f.checkPID(pid); err != nil {
		return claim{}, false, err
	}
	if f.stopped.Load() {
		return claim{}, false, ErrShutdown
	}
	l, err := f.lookup(id)
	if err != nil {
		return claim{}, false, err
	}
	l.lock.Lock()
	d := l.recvs[pid]
	if f.slots[id].Load() != l || d == nil {
		l.lock.Unlock()
		return claim{}, false, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
	}
	m := l.availableLocked(d)
	if m == nil {
		l.lock.Unlock()
		return claim{}, false, nil
	}
	c := claim{l: l, m: m, gen: l.gen, owned: l.claimLocked(d, m, take)}
	l.lock.Unlock()
	return c, true, nil
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
		return false, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
	}
	f.stats.checks.Add(1)
	return l.availableLocked(d) != nil, nil
}

// reclaimLocked removes and recycles every message that no connected
// receiver can still consume (rules 3-4 of the package comment). Called
// under the LNVC lock after any event that can release a claim.
func (f *Facility) reclaimLocked(l *lnvc) {
	bcastOnly := l.nFCFS == 0 && (l.nBcast > 0)
	// The victims are unlinked as the scan finds them and go back in one
	// free-pool transaction — a batched receive's reclaim costs one arena
	// lock acquisition however many messages it retired. The stack
	// buffer covers a typical scan without a heap allocation.
	var victimsBuf [16]*msg.Message
	victims := victimsBuf[:0]
	granted := 0
	var prev *msg.Message
	for m := l.queue.Head(); m != nil; {
		next := m.Next
		if m.Pins == 0 && m.Pending == 0 && (!m.FCFSNeeded || bcastOnly) {
			l.queue.Remove(m, prev)
			victims = append(victims, m)
			granted += m.Blocks
		} else {
			prev = m
		}
		m = next
	}
	if len(victims) == 0 {
		return
	}
	// Release blocks still under the LNVC lock, but the arena has its
	// own lock so this is safe (arena lock is a leaf in the lock order).
	f.pool.ReleaseBatch(victims)
	// The victims' blocks are back in the region: return their
	// accounted demand to the circuit's credit budget and wake any
	// senders parked for it — one grant for the whole scan.
	f.grantCreditLocked(l, granted)
}

// Info describes an LNVC's current state for introspection and tests.
type Info struct {
	Name          string
	ID            ID
	QueuedMsgs    int
	Senders       int
	FCFSRecvs     int
	BcastRecvs    int
	FCFSHeadSeq   uint64
	NextSeq       uint64
	SenderPIDs    []int
	ReceiverPIDs  []int
	ReceiverProto map[int]Protocol
	// The credit ledger: CreditCap is the configured per-circuit budget
	// (Config.CreditBlocks; 0 = flow control off) and CreditUsed the
	// accounted blocks currently debited against it. At quiescence —
	// every message reclaimed, every loan resolved — CreditUsed is 0:
	// credits held plus credits free equal the budget.
	CreditCap  int
	CreditUsed int
}

// LNVCInfo returns a snapshot of the LNVC's descriptor state.
func (f *Facility) LNVCInfo(id ID) (Info, error) {
	l, err := f.lookup(id)
	if err != nil {
		return Info{}, err
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	if f.slots[id].Load() != l {
		// Deleted (and possibly recycled) between the lock-free lookup
		// and the lock acquisition.
		return Info{}, fmt.Errorf("%w: id %d", ErrBadLNVC, id)
	}
	info := Info{
		Name:          l.name,
		ID:            l.id,
		QueuedMsgs:    l.queue.Len(),
		Senders:       len(l.sends),
		FCFSRecvs:     l.nFCFS,
		BcastRecvs:    l.nBcast,
		FCFSHeadSeq:   l.fcfsHeadSeq,
		NextSeq:       l.queue.NextSeq(),
		ReceiverProto: make(map[int]Protocol, len(l.recvs)),
		CreditCap:     f.cfg.CreditBlocks,
		CreditUsed:    int(l.creditUsed),
	}
	for pid := range l.sends {
		info.SenderPIDs = append(info.SenderPIDs, pid)
	}
	for pid, d := range l.recvs {
		info.ReceiverPIDs = append(info.ReceiverPIDs, pid)
		info.ReceiverProto[pid] = d.proto
	}
	return info, nil
}
