package core

import (
	"errors"
	"fmt"
)

// Per-circuit credit-based flow control. The paper's only backpressure
// signal is global block-pool exhaustion: a sender discovers the region
// is full only when BlockUntilFree parks it on the arena's free-pool
// wait, where it competes with every other sender in the facility. One
// hot circuit can therefore monopolise the arena and stall every
// tenant — the unfairness the fairness ablation (mpfbench -credit)
// measures. Credit bounds each circuit's arena share instead:
//
//   - Config.CreditBlocks grants every circuit a receiver-side budget,
//     accounted in blocks — the unit the arena actually allocates and
//     the same worst-case BlocksFor demand the capacity checks use.
//   - The send core's admit (send.go) debits the budget for the whole
//     call's block demand before allocation, under the circuit lock. A send that would overdraw parks on
//     a per-circuit credit waiter list (BlockUntilFree) or returns
//     ErrNoCredit (FailFast). Waiter lists keep wakeups O(parked on
//     this circuit), exactly like the receive-side waiter lists they
//     mirror (waiter.go).
//   - Credits return to the budget when the message's blocks return to
//     the region while the circuit lives: the reclaim scan re-grants
//     every victim's Message.Blocks and wakes parked senders in batch.
//     A send that never reaches the FIFO (a failed allocation,
//     Loan.Abort, LoanBatch.AbortAll, the aborted tail of a CommitN, a
//     publish that lost its circuit) refunds its demand the same way.
//   - A circuit that dies zeroes its ledger: unread messages are
//     dropped (their credits die with the circuit) and pinned messages
//     are orphaned to their pin holders — the orphan's blocks go back
//     to the arena at the last unpin, but its credits are restored to
//     the facility-wide CreditsHeld gauge at orphaning time, because
//     the budget they were debited from no longer exists. Refunds
//     arriving after death (an outstanding loan aborting late) are
//     rejected by the descriptor generation check, so a recycled
//     descriptor's fresh ledger can never be corrupted by its previous
//     life's traffic.
//
// Credit is receiver-granted: it only flows back when a receiver (or
// the reclaim rules acting for one) releases blocks. A sender parked
// for credit on a circuit whose last receiver departs can therefore
// never be satisfied, so the close path wakes the credit waiters and
// the wait loop fails them with a prompt ErrNotConnected instead of
// parking forever — the same promptness contract the receive-side parks
// got in the selector work.

// ErrNoCredit is returned by the send-side primitives when the
// circuit's credit budget cannot cover the message under the FailFast
// policy — or, under either policy, when a single message's block
// demand exceeds the whole budget and so could never be granted.
var ErrNoCredit = errors.New("mpf: circuit out of credit blocks")

// creditWaiter is one sender parked for circuit credit. ch has
// capacity 1 so a grant firing while the sender is between the list
// and the park is retained.
type creditWaiter struct {
	ch chan struct{}
}

// wakeCreditWaitersLocked fires every parked credit waiter on l so
// each re-evaluates the budget (or its connection). Called under
// l.lock after any event that can change the answer: a credit grant, a
// connection close, circuit deletion.
func (l *lnvc) wakeCreditWaitersLocked() {
	for _, w := range l.creditWaiters {
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}

// removeCreditWaiterLocked removes one registration of w from l's
// list; a w no longer present (the descriptor was recycled and its
// list cleared by reset) is a no-op.
func (l *lnvc) removeCreditWaiterLocked(w *creditWaiter) {
	for i, x := range l.creditWaiters {
		if x == w {
			last := len(l.creditWaiters) - 1
			l.creditWaiters[i] = l.creditWaiters[last]
			l.creditWaiters[last] = nil
			l.creditWaiters = l.creditWaiters[:last]
			return
		}
	}
}

// acquireCredit debits blocks from id's budget, parking until the
// budget can cover them (BlockUntilFree) or failing with ErrNoCredit
// (FailFast). It re-validates the connection on entry and on every
// wake, so a sender parked for credit observes CloseSend, circuit
// deletion, the departure of the last receiver, and Shutdown promptly.
// On success it returns the descriptor generation at debit time, which
// refundCredit uses to reject refunds that outlive the circuit. The
// caller must have checked cfg.CreditBlocks > 0.
func (f *Facility) acquireCredit(l *lnvc, id ID, pid, blocks int) (uint64, error) {
	budget := f.cfg.CreditBlocks
	l.lock.Lock()
	for {
		if f.slots[id].Load() != l || l.sends[pid] == nil {
			l.lock.Unlock()
			return 0, fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, id, pid)
		}
		if blocks > budget {
			l.lock.Unlock()
			return 0, fmt.Errorf("%w: message of %d blocks exceeds the circuit budget of %d",
				ErrNoCredit, blocks, budget)
		}
		if int(l.creditUsed)+blocks <= budget {
			l.creditUsed += int32(blocks)
			gen := l.gen
			l.lock.Unlock()
			f.stats.creditsHeld.Add(int64(blocks))
			return gen, nil
		}
		if f.cfg.SendPolicy == FailFast {
			used := l.creditUsed
			l.lock.Unlock()
			return 0, fmt.Errorf("%w: circuit %d holds %d of %d credit blocks, need %d",
				ErrNoCredit, id, used, budget, blocks)
		}
		if l.nFCFS+l.nBcast == 0 {
			// Receiver-granted credit with no receiver connected: the
			// grant can never arrive, so failing beats deadlock. This is
			// how a CloseReceive that removes the last receiver turns a
			// parked credit waiter into a prompt error.
			l.lock.Unlock()
			return 0, fmt.Errorf("%w: credit wait on id %d with no receiver connected", ErrNotConnected, id)
		}
		w := &creditWaiter{ch: make(chan struct{}, 1)}
		l.creditWaiters = append(l.creditWaiters, w)
		l.lock.Unlock()
		f.stats.creditStalls.Add(1)
		f.trace(Event{Op: OpCreditStall, PID: pid, LNVC: id, Bytes: blocks * f.arena.BlockSize()})
		select {
		case <-w.ch:
		case <-f.stop:
			l.lock.Lock()
			l.removeCreditWaiterLocked(w)
			l.lock.Unlock()
			return 0, ErrShutdown
		}
		l.lock.Lock()
		l.removeCreditWaiterLocked(w)
	}
}

// grantCreditLocked returns blocks to l's budget and wakes parked
// credit waiters. Called under l.lock. The clamp to the outstanding
// debit makes late grants — a reclaim on a descriptor whose ledger was
// zeroed at circuit death and recycled — harmless: they grant nothing
// and leave the CreditsHeld gauge consistent (the death path already
// restored those credits).
func (f *Facility) grantCreditLocked(l *lnvc, blocks int) {
	if f.cfg.CreditBlocks <= 0 || blocks <= 0 {
		return
	}
	if int(l.creditUsed) < blocks {
		blocks = int(l.creditUsed)
	}
	if blocks == 0 {
		return
	}
	l.creditUsed -= int32(blocks)
	f.stats.creditsHeld.Add(-int64(blocks))
	l.wakeCreditWaitersLocked()
}

// refundCredit returns a never-enqueued debit (an aborted or
// circuit-lost loan, a failed build) to the budget. The generation
// check rejects a refund whose circuit died or was recycled since the
// debit: the death path restored those credits to the gauge already,
// and the descriptor's current ledger belongs to someone else.
func (f *Facility) refundCredit(l *lnvc, gen uint64, blocks int) {
	if f.cfg.CreditBlocks <= 0 || blocks <= 0 {
		return
	}
	l.lock.Lock()
	if l.gen == gen {
		f.grantCreditLocked(l, blocks)
	}
	l.lock.Unlock()
}

// dropLedgerLocked zeroes a dying circuit's ledger, restoring its
// outstanding debits to the facility-wide gauge — the orphan-restore
// rule: a pinned message orphaned at circuit death keeps its blocks
// until the last unpin, but its credits return here, at orphaning
// time, because the budget they came from is gone. Called under l.lock
// from the close path's deletion branch.
func (f *Facility) dropLedgerLocked(l *lnvc) {
	if l.creditUsed != 0 {
		f.stats.creditsHeld.Add(-int64(l.creditUsed))
		l.creditUsed = 0
	}
}

// CreditBlocksFor reports the credit ledger's accounted demand for an
// n-byte message — Arena.BlocksFor, exposed so tests and callers can
// reason about budgets in the ledger's own unit.
func (f *Facility) CreditBlocksFor(n int) int { return f.arena.BlocksFor(n) }
