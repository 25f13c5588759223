package core

import (
	"fmt"
	"sync"

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

	// waiters are the registrations of the Selectors watching this
	// circuit (ReceiveAny runs on a transient one); enqueue and close
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
	f.pool.ReleaseBatch(drop)
	return nil
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
