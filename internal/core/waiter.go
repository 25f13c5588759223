package core

import "time"

// Per-circuit readiness notification. Every LNVC descriptor keeps a
// list of the Selectors registered on it; the enqueue and close paths
// wake exactly those — O(selectors on this circuit) work, not
// O(waiters in the facility). This is the epoll-style structure every
// multiplexed wait parks on: Selector.Wait and HarvestViews, and
// ReceiveAny, which runs on a transient Selector (any.go). The
// arena's block-pool wait keeps a facility-wide wakeup because its
// condition really is global: any freed block serves any waiter, so a
// per-resource list would buy nothing there.

// muxWaiter is one Selector's registration entry, shared by every
// circuit that selector watches: a fire marks the circuit ready on the
// selector and taps its parked Wait.
type muxWaiter struct {
	sel *Selector
}

// wakeWaitersLocked marks l ready in every Selector registered on it.
// Called under l.lock after any event that can change readiness for a
// multiplexer: message enqueue, connection close, circuit deletion. It
// never blocks: markReady takes only the selector's leaf lock.
func (l *lnvc) wakeWaitersLocked() {
	for _, w := range l.waiters {
		w.sel.markReady(l.id)
	}
}

func (l *lnvc) addWaiterLocked(w *muxWaiter) { l.waiters = append(l.waiters, w) }

// removeWaiterLocked removes one registration of w from l's list. A w
// that is not on the list (the descriptor was deleted and its list
// cleared by reset before the owner unregistered) is a no-op.
func (l *lnvc) removeWaiterLocked(w *muxWaiter) {
	for i, x := range l.waiters {
		if x == w {
			last := len(l.waiters) - 1
			l.waiters[i] = l.waiters[last]
			l.waiters[last] = nil
			l.waiters = l.waiters[:last]
			return
		}
	}
}

// parkWait is the multiplexers' park: it blocks until wake fires
// (true, nil), stop aborts (ErrShutdown), or the optional deadline
// passes (ErrTimeout). Selector.Wait and HarvestViews sleep here.
func parkWait(wake <-chan struct{}, stop <-chan struct{}, deadline *time.Time) (bool, error) {
	if deadline == nil {
		select {
		case <-wake:
			return true, nil
		case <-stop:
			return false, ErrShutdown
		}
	}
	wait := time.Until(*deadline)
	if wait <= 0 {
		return false, ErrTimeout
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-wake:
		return true, nil
	case <-stop:
		return false, ErrShutdown
	case <-timer.C:
		return false, ErrTimeout
	}
}
