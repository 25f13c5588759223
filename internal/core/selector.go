package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/spinlock"
)

// ErrSelectorClosed is returned by operations on a closed Selector.
var ErrSelectorClosed = errors.New("mpf: selector closed")

// Selector multiplexes many receive connections of one process over a
// single wait, epoll-style. Registered circuits push their identifier
// onto the selector's ready list when a message is enqueued (or the
// circuit is torn down), so a Wait wakes only when one of *its*
// circuits fires and does O(ready) work per wakeup — not O(registered),
// and not one wakeup per Send anywhere in the facility like the global
// activity pulse this replaces.
//
// Readiness is level-triggered: a circuit Wait reports stays armed and
// is reported again by subsequent Waits until a harvest observes it
// drained, so partial consumption cannot strand queued messages. For
// FCFS connections readiness is also advisory, in exactly the sense of
// the paper's check_receive caveat: a sibling FCFS receiver may claim
// the message between Wait returning and the caller receiving, so
// drain ready circuits with TryReceive, never a blocking Receive.
//
// A Selector belongs to one process id. Like a Process, it must not be
// used from two goroutines at once, except for Close, which may be
// called from anywhere to abort a parked Wait.
type Selector struct {
	f   *Facility
	pid int

	// notify is the parked Wait's wakeup; capacity 1, so a fire during
	// the harvest phase is retained and the next park returns
	// immediately. w is the single registration entry shared by every
	// circuit this selector watches.
	notify chan struct{}
	w      *muxWaiter

	// The pad pushes mu and the ready-list head it guards onto their
	// own cache lines: every markReady — called from *senders*, under
	// the firing circuit's lock — spins on mu and appends to ready,
	// and without the pad those words share a line with the fields the
	// parked owner reads on its wakeup path. Asserted by
	// TestHotWordLayout.
	_ [32]byte

	// mu guards the fields below. Lock order: shard lock → LNVC lock →
	// mu (markReady runs under the firing LNVC's lock), so Selector
	// methods must never acquire an LNVC lock while holding mu.
	mu      spinlock.TAS
	regs    map[ID]selReg
	ready   []ID // circuits fired since the last harvest, deduplicated
	inReady map[ID]bool
	closed  bool

	// deadErr is a circuit death observed by a HarvestViews round that
	// had already claimed views: the views were returned first and the
	// error is surfaced by the next wait or harvest call (the dead
	// registration is already dropped). Owner-goroutine state, like a
	// wait round itself — never touched by Close.
	deadErr error

	// Adaptive-harvest state (Config.AutoHarvestMin/Max): an EWMA of
	// the per-round harvest yield, the budget the last auto round ran
	// with, and whether that round consumed it entirely (in which case
	// the observed yield is censored at the budget and the next round
	// probes upward). Owner-goroutine state, like deadErr.
	ewmaDepth  float64
	lastBudget int
	lastFilled bool

	// claimed is the harvest's scratch for one circuit's claims,
	// reused across rounds (owner-goroutine state).
	claimed []*msg.Message
}

// selReg pins a registration to one incarnation of one descriptor: l
// is the descriptor the waiter entry was placed on and gen its
// generation at registration time. A harvest that finds either changed
// is looking at a recycled descriptor, not the registered circuit.
type selReg struct {
	l   *lnvc
	gen uint64
}

// NewSelector creates a selector for pid's receive connections.
func (f *Facility) NewSelector(pid int) (*Selector, error) {
	if err := f.checkPID(pid); err != nil {
		return nil, err
	}
	s := &Selector{
		f:       f,
		pid:     pid,
		notify:  make(chan struct{}, 1),
		regs:    make(map[ID]selReg),
		inReady: make(map[ID]bool),
	}
	s.w = &muxWaiter{sel: s}
	return s, nil
}

// markReady records that circuit id fired and wakes a parked Wait.
// Called under the firing LNVC's lock. A fire for a circuit that is no
// longer registered — a recycled descriptor carrying a stale
// registration the owner has not yet removed — is dropped here, which
// is what makes descriptor recycling safe for selectors.
func (s *Selector) markReady(id ID) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, ok := s.regs[id]; !ok {
		s.mu.Unlock()
		return
	}
	s.markReadyLockedMu(id)
	s.mu.Unlock()
	s.tapNotify()
}

// markReadyLockedMu queues id for the next harvest; caller holds mu
// and has checked regs/closed.
func (s *Selector) markReadyLockedMu(id ID) {
	if !s.inReady[id] {
		s.inReady[id] = true
		s.ready = append(s.ready, id)
	}
}

func (s *Selector) tapNotify() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Add registers a circuit; pid must hold a receive connection on it. A
// circuit with a message already available is immediately ready. The
// whole registration happens under the circuit's lock, so it cannot
// interleave with a concurrent Close (which must take the same lock to
// unregister) — Close either sees the registration and removes it, or
// arrives first and makes Add fail with ErrSelectorClosed.
func (s *Selector) Add(id ID) error {
	l, err := s.f.lookup(id)
	if err != nil {
		return err
	}
	l.lock.Lock()
	d := l.recvs[s.pid]
	if s.f.slots[id].Load() != l || d == nil {
		l.lock.Unlock()
		return fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, s.pid)
	}
	var stale selReg
	avail := l.availableLocked(d) != nil
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.lock.Unlock()
		return ErrSelectorClosed
	}
	if old, dup := s.regs[id]; dup {
		if old.l == l && old.gen == l.gen {
			s.mu.Unlock()
			l.lock.Unlock()
			return fmt.Errorf("%w: circuit %d already in selector", ErrAlreadyOpen, id)
		}
		// A previous circuit died and its id was recycled to this new
		// one before the owner noticed: replace the dead registration
		// (its waiter entry is cleaned up below, outside l's lock).
		stale = old
		delete(s.inReady, id)
	}
	s.regs[id] = selReg{l: l, gen: l.gen}
	if avail {
		s.markReadyLockedMu(id)
	}
	s.mu.Unlock()
	l.addWaiterLocked(s.w)
	l.lock.Unlock()
	if stale.l != nil {
		s.unregister(stale)
	}
	if avail {
		s.tapNotify()
	}
	return nil
}

// unregister removes reg's waiter entry from its descriptor — unless
// the descriptor has been recycled since the registration was made
// (generation mismatch): reset already cleared the stale entry then,
// and any s.w now on the list belongs to a *newer* registration of
// this selector on the recycled descriptor, which identity-based
// removal would otherwise strip, permanently losing its wakeups.
func (s *Selector) unregister(reg selReg) {
	reg.l.lock.Lock()
	if reg.l.gen == reg.gen {
		reg.l.removeWaiterLocked(s.w)
	}
	reg.l.lock.Unlock()
}

// Remove unregisters a circuit. Messages queued on it stay queued; the
// connection itself is untouched.
func (s *Selector) Remove(id ID) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSelectorClosed
	}
	reg, ok := s.regs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: circuit %d not in selector", ErrNotConnected, id)
	}
	delete(s.regs, id)
	// The id may still sit in the ready slice; clearing inReady makes
	// the next harvest skip it.
	delete(s.inReady, id)
	s.mu.Unlock()

	s.unregister(reg)
	return nil
}

// Has reports whether id is currently registered.
func (s *Selector) Has(id ID) bool {
	s.mu.Lock()
	_, ok := s.regs[id]
	s.mu.Unlock()
	return ok
}

// Circuits returns the currently registered circuit ids, snapshotted
// under a single lock hold — the bulk form of Has, so a caller
// reconciling its own table (mpf.Selector's prune) does one pass
// instead of re-locking once per circuit.
func (s *Selector) Circuits() []ID {
	s.mu.Lock()
	out := make([]ID, 0, len(s.regs))
	for id := range s.regs {
		out = append(out, id)
	}
	s.mu.Unlock()
	return out
}

// Len returns the number of registered circuits.
func (s *Selector) Len() int {
	s.mu.Lock()
	n := len(s.regs)
	s.mu.Unlock()
	return n
}

// Close unregisters every circuit, wakes a parked Wait, and makes all
// further operations fail with ErrSelectorClosed. Idempotent.
func (s *Selector) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	regs := make([]selReg, 0, len(s.regs))
	for _, reg := range s.regs {
		regs = append(regs, reg)
	}
	clear(s.regs)
	clear(s.inReady)
	s.ready = nil
	s.mu.Unlock()
	for _, reg := range regs {
		s.unregister(reg)
	}
	s.tapNotify()
	return nil
}

// Wait blocks until at least one registered circuit has a deliverable
// message for this process, then returns the ready circuits' ids. If a
// registered circuit's receive connection is closed — or the circuit
// deleted — while waiting, Wait drops that registration and returns
// ErrNotConnected rather than parking forever (other circuits'
// readiness is retained for the next Wait); facility Shutdown returns
// ErrShutdown, and Close returns ErrSelectorClosed.
func (s *Selector) Wait() ([]ID, error) { return s.wait(nil) }

// WaitDeadline is Wait bounded by d; it returns ErrTimeout if no
// circuit becomes ready in time.
func (s *Selector) WaitDeadline(d time.Duration) ([]ID, error) {
	if d <= 0 {
		return nil, fmt.Errorf("%w: non-positive deadline %v", ErrTimeout, d)
	}
	deadline := time.Now().Add(d)
	return s.wait(&deadline)
}

type firedReg struct {
	id ID
	selReg
}

// collectFired drains the deduplicated ready list into fired (reused
// across rounds), returning the registrations to inspect this round.
// It fails on a closed or empty selector.
func (s *Selector) collectFired(fired []firedReg) ([]firedReg, error) {
	fired = fired[:0]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSelectorClosed
	}
	if len(s.regs) == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: Wait on a selector with no circuits", ErrBadLNVC)
	}
	for _, id := range s.ready {
		if !s.inReady[id] {
			continue // removed since it fired
		}
		delete(s.inReady, id)
		if reg, ok := s.regs[id]; ok {
			fired = append(fired, firedReg{id, reg})
		}
	}
	s.ready = s.ready[:0]
	s.mu.Unlock()
	return fired, nil
}

// takeDeadErr surfaces a circuit death a previous harvest round
// deferred (views first, error next call).
func (s *Selector) takeDeadErr() error {
	err := s.deadErr
	s.deadErr = nil
	return err
}

func (s *Selector) wait(deadline *time.Time) ([]ID, error) {
	var out []ID
	err := s.serve(deadline, func(fired []firedReg) (int, error) {
		out = out[:0]
		var dead error
		for _, fr := range fired {
			d, err := s.lockLive(fr)
			if err != nil {
				dead = err
				continue
			}
			avail := fr.l.availableLocked(d) != nil
			fr.l.lock.Unlock()
			if avail {
				out = append(out, fr.id)
			}
		}
		// Level-trigger: every circuit reported ready stays on the
		// ready list until a later harvest observes it drained, so a
		// caller that consumes only part of a circuit's queue — or
		// none of it, when a death preempts the results — sees it
		// again on the next Wait instead of parking over deliverable
		// messages. No notify tap is needed: the next wait() harvests
		// before it can park.
		s.remarkReady(out)
		return len(out), dead
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// serve is the one wait loop behind Wait and HarvestViews. Each round
// drains the circuits that fired since the last one — only these are
// inspected: O(ready) per wakeup — and hands them to round, which
// reports how many results it produced and any circuit death it saw. A
// round with results or a death ends the call with round's error;
// otherwise serve parks until a registered circuit fires, the deadline
// passes (ErrTimeout), or the facility shuts down (ErrShutdown). A
// wakeup whose round finds nothing counts as spurious.
func (s *Selector) serve(deadline *time.Time, round func([]firedReg) (int, error)) error {
	if err := s.takeDeadErr(); err != nil {
		return err
	}
	f := s.f
	woken := false
	var fired []firedReg // reused across rounds
	for {
		if f.stopped.Load() {
			return ErrShutdown
		}
		var err error
		if fired, err = s.collectFired(fired); err != nil {
			return err
		}
		n, dead := round(fired)
		if woken {
			f.stats.muxWakeups.Add(1)
			if n == 0 && dead == nil {
				f.stats.muxSpurious.Add(1)
			}
			woken = false
		}
		if n > 0 || dead != nil {
			return dead
		}
		ok, err := parkWait(s.notify, f.stop, deadline)
		if err != nil {
			return err
		}
		woken = ok
	}
}

// lockLive locks a fired circuit and returns pid's receive connection
// on it, still locked. The generation check rejects a descriptor — and
// id — recycled to a new circuit: the registered circuit is gone even
// though the slot and connection test would pass against its
// successor. A circuit closed under the selector comes back unlocked as
// ErrNotConnected, its dead registration dropped so later waits can
// proceed.
func (s *Selector) lockLive(fr firedReg) (*recvDesc, error) {
	fr.l.lock.Lock()
	d := fr.l.recvs[s.pid]
	if s.f.slots[fr.id].Load() == fr.l && fr.l.gen == fr.gen && d != nil {
		return d, nil
	}
	fr.l.lock.Unlock()
	s.dropReg(fr.id, fr.selReg)
	return nil, fmt.Errorf("%w: circuit %d closed while in selector", ErrNotConnected, fr.id)
}

// remarkReady re-queues still-registered circuits for the next
// harvest.
func (s *Selector) remarkReady(ids []ID) {
	if len(ids) == 0 {
		return
	}
	s.mu.Lock()
	if !s.closed {
		for _, id := range ids {
			if _, ok := s.regs[id]; ok {
				s.markReadyLockedMu(id)
			}
		}
	}
	s.mu.Unlock()
}

// claimBuf returns the harvest's claim scratch sized to k.
func (s *Selector) claimBuf(k int) []*msg.Message {
	if cap(s.claimed) < k {
		s.claimed = make([]*msg.Message, k)
	}
	return s.claimed[:k]
}

// dropReg removes a registration whose circuit died while parked.
func (s *Selector) dropReg(id ID, reg selReg) {
	s.mu.Lock()
	if s.regs[id] == reg {
		delete(s.regs, id)
		delete(s.inReady, id)
	}
	s.mu.Unlock()
	s.unregister(reg)
}

// HarvestViews blocks like Wait, but instead of reporting ready
// circuit ids it drains them into pinned zero-copy Views inside the
// same round: each ready circuit is locked once and up to the
// remaining budget of deliverable messages is claimed under that one
// hold — where the Wait + TryReceiveView idiom re-resolves the
// registry and re-locks the circuit once per message. max bounds the
// views claimed per call (at least 1 is returned when any circuit has
// traffic); views arrive grouped by circuit, in each circuit's FIFO
// order, with Circuit() attributing each. The claims are exactly
// TryReceiveView's — FCFS claims are atomic, so sibling receivers
// cannot double-consume, and every view holds a pin until Release (or
// a batched ReleaseViews, which undoes a harvest's pins with one lock
// acquisition per circuit).
//
// A non-positive max selects the adaptive budget when the facility was
// configured with AutoHarvestMin/Max (otherwise it is an error): each
// round is sized from an EWMA of recent harvest yields, clamped to the
// configured window and probed upward after a round that filled its
// budget, and the round's budget is split evenly across the circuits
// that fired (never below one message each) so a hot circuit cannot
// consume the whole round while ready siblings starve — the cap's
// truncations are counted in Stats.HarvestCapHits, the budget itself
// in the Stats.HarvestAutoBudget gauge. A positive max keeps the
// historical fixed-budget greedy sweep.
//
// A circuit left with traffic by the budget stays armed and is
// harvested by the next call — the same level-trigger Wait gives
// partially drained circuits. Error behaviour matches Wait:
// ErrNotConnected when a registered circuit died while parked (any
// views already claimed that round are returned first — the error
// surfaces on the next call), ErrShutdown, ErrSelectorClosed,
// ErrTimeout from the deadline variant.
func (s *Selector) HarvestViews(max int) ([]*View, error) {
	vs, err := s.harvestViews(max, nil)
	s.traceHarvest(vs, err)
	return vs, err
}

// HarvestViewsDeadline is HarvestViews bounded by d; it returns
// ErrTimeout if no circuit delivers in time.
func (s *Selector) HarvestViewsDeadline(max int, d time.Duration) ([]*View, error) {
	if d <= 0 {
		return nil, fmt.Errorf("%w: non-positive deadline %v", ErrTimeout, d)
	}
	deadline := time.Now().Add(d)
	vs, err := s.harvestViews(max, &deadline)
	s.traceHarvest(vs, err)
	return vs, err
}

// harvestEWMAAlpha weights the newest round's yield in the adaptive
// budget's moving average: 1/4 new, 3/4 history — fast enough to track
// an MMPP-style on/off burst within a few rounds, smooth enough not to
// collapse the budget on one quiet round.
const harvestEWMAAlpha = 0.25

// nextAutoBudget sizes an auto-mode round: the yield EWMA rounded up,
// doubled as an upward probe when the previous round consumed its
// whole budget (the observation is censored at the budget, so the true
// depth may be anything above it), clamped to the configured window.
// The result is also published to the HarvestAutoBudget gauge.
func (s *Selector) nextAutoBudget() int {
	lo, hi := s.f.cfg.AutoHarvestMin, s.f.cfg.AutoHarvestMax
	b := int(s.ewmaDepth) + 1
	if s.lastFilled && b < s.lastBudget*2 {
		b = s.lastBudget * 2
	}
	if b < lo {
		b = lo
	}
	if b > hi {
		b = hi
	}
	s.lastBudget = b
	s.f.stats.harvestAutoBudget.Store(uint64(b))
	return b
}

// observeHarvest folds one auto round's yield into the EWMA. Called
// only for rounds that had fired circuits, so pure spurious wakeups do
// not decay the depth estimate.
func (s *Selector) observeHarvest(claimed, budget int) {
	s.ewmaDepth = (1-harvestEWMAAlpha)*s.ewmaDepth + harvestEWMAAlpha*float64(claimed)
	s.lastFilled = claimed >= budget
}

func (s *Selector) traceHarvest(vs []*View, err error) {
	total := 0
	for _, v := range vs {
		total += v.Len()
	}
	s.f.trace(Event{Op: OpHarvestViews, PID: s.pid, Bytes: total, Err: err})
}

func (s *Selector) harvestViews(max int, deadline *time.Time) ([]*View, error) {
	auto := max < 1
	if auto && s.f.cfg.AutoHarvestMax < 1 {
		return nil, fmt.Errorf("core: HarvestViews with budget %d (auto-harvest not configured)", max)
	}
	f := s.f
	var out []*View
	err := s.serve(deadline, func(fired []firedReg) (int, error) {
		if auto {
			max = s.nextAutoBudget()
		}
		// The fairness cap (auto mode only): split the round's budget
		// evenly across the circuits that fired, so one hot circuit
		// cannot consume the whole round while ready siblings sit
		// armed but unserved. Fixed-budget mode keeps the historical
		// greedy sweep — which is exactly what the tuning ablation
		// measures against.
		perCircuit := max
		if auto && len(fired) > 1 {
			perCircuit = max / len(fired)
			if perCircuit < 1 {
				perCircuit = 1
			}
		}
		var remark []ID
		var dead error
		total := 0
		for _, fr := range fired {
			if len(out) >= max {
				// Budget exhausted before this circuit was even looked
				// at: keep it armed, untouched, for the next call.
				remark = append(remark, fr.id)
				continue
			}
			d, err := s.lockLive(fr)
			if err != nil {
				dead = err
				continue
			}
			// Claim everything deliverable (up to the budget and the
			// fairness cap) under this one lock hold — the whole point
			// of the harvest. The queue length bounds the scratch.
			into := s.claimBuf(min(max-len(out), perCircuit, fr.l.queue.Len()))
			claimed, _ := fr.l.claimUpToLocked(d, into, false)
			more := fr.l.availableLocked(d) != nil
			// The views are built inside the hold on purpose: built after
			// the unlock, they let the circuit's senders run further
			// ahead of the harvest, which measured as ~10% higher
			// delivery latency on the views-burst workload.
			for _, m := range into[:claimed] {
				out = append(out, &View{f: f, l: fr.l, m: m, id: fr.id})
				total += m.Length
			}
			fr.l.lock.Unlock()
			if more {
				// Budget- or cap-limited with traffic left: stays armed.
				if claimed >= perCircuit && perCircuit < max {
					f.stats.harvestCapHits.Add(1)
				}
				remark = append(remark, fr.id)
			}
		}
		if auto && len(fired) > 0 {
			s.observeHarvest(len(out), max)
		}
		s.remarkReady(remark)
		if len(out) == 0 {
			return 0, dead
		}
		f.stats.receives.Add(uint64(len(out)))
		f.stats.bytesRecvd.Add(uint64(total))
		f.stats.harvestedViews.Add(uint64(len(out)))
		// A circuit death observed this round is deferred, not
		// dropped: claimed views are never discarded, so the error is
		// stashed for the next wait/harvest call to return (the
		// registration is already gone — nothing would re-fire it).
		s.deadErr = dead
		return len(out), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
