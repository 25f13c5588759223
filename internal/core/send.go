package core

import (
	"fmt"

	"repro/internal/msg"
)

// The send half of the facility. Every send primitive — Send, SendBatch,
// SendLoan/Commit and LoanBatch/CommitN — runs the same two steps
// around its own block fill:
//
//   - admit validates the call (process id, shutdown, region capacity,
//     the circuit id) and either debits the circuit's credit budget for
//     the whole block demand or, without credit, checks the send
//     connection. It fails fast before the (possibly blocking)
//     allocation.
//   - publish re-validates the connection under the circuit lock,
//     enqueues a run of messages at consecutive sequence numbers with
//     one wakeup, and hands back the aborted tail's blocks and credit.
//
// Between the two the wrapper allocates the blocks and fills them: Send
// and SendBatch copy the caller's buffers in (counted in
// PayloadCopiesIn), a Loan or LoanBatch hands the blocks to the caller
// to write in place. The wrappers differ only in that fill and in which
// counters they bump.

// sendTxn is one admitted send: the circuit it goes to and the credit
// debit it holds until publish enqueues the messages or abort returns
// them. Send keeps it on the stack; a Loan or LoanBatch carries it while
// the caller fills the blocks.
type sendTxn struct {
	f   *Facility
	l   *lnvc
	id  ID
	pid int
	// The credit debit (Config.CreditBlocks), refunded for every message
	// that never reaches the FIFO. creditGen pins the refund to the
	// descriptor incarnation that was debited.
	creditGen    uint64
	creditBlocks int
}

// admit is the first step of every send: validation, then the credit
// debit for blocks (parking per SendPolicy until the budget covers it)
// or, without credit — or for an empty batch (msgs == 0) — the
// connection check. bytes is the total payload, for the error text.
func (f *Facility) admit(pid int, id ID, msgs, bytes, blocks int) (sendTxn, error) {
	if err := f.checkPID(pid); err != nil {
		return sendTxn{}, err
	}
	if f.stopped.Load() {
		return sendTxn{}, ErrShutdown
	}
	if blocks > f.arena.NumBlocks() {
		return sendTxn{}, fmt.Errorf("%w: %d bytes in %d blocks, region holds %d blocks",
			ErrMessageTooBig, bytes, blocks, f.arena.NumBlocks())
	}
	l, err := f.lookup(id)
	if err != nil {
		return sendTxn{}, err
	}
	t := sendTxn{f: f, l: l, id: id, pid: pid}
	if f.cfg.CreditBlocks > 0 && msgs > 0 {
		if t.creditGen, err = f.acquireCredit(l, id, pid, blocks); err != nil {
			return sendTxn{}, err
		}
		t.creditBlocks = blocks
		return t, nil
	}
	l.lock.Lock()
	ok := f.slots[id].Load() == l && l.sends[pid] != nil
	l.lock.Unlock()
	if !ok {
		return sendTxn{}, t.notConnected()
	}
	return t, nil
}

// built maps a failed block allocation to the send's error, returning
// the debit first. A nil err passes through.
func (t *sendTxn) built(err error) error {
	if err == nil {
		return nil
	}
	t.f.refundCredit(t.l, t.creditGen, t.creditBlocks)
	if t.f.stopped.Load() {
		return ErrShutdown
	}
	return fmt.Errorf("%w: %v", ErrNoMemory, err)
}

// publish is the second step of every send. It enqueues ms[:n] as one
// run at consecutive sequence numbers — no other sender interleaves it
// — with one wakeup, and returns ms[n:], the aborted tail, to the region
// in one transaction and its credit to the budget under the same lock
// hold. The circuit may have been deleted, and its descriptor recycled
// for another name, while the blocks were filled: if the connection is
// gone, or the facility shut down, every message goes back and the
// whole debit is refunded.
func (t *sendTxn) publish(ms []*msg.Message, n int) error {
	f, l := t.f, t.l
	if f.stopped.Load() {
		t.abort(ms)
		return ErrShutdown
	}
	l.lock.Lock()
	if f.slots[t.id].Load() != l || l.sends[t.pid] == nil {
		l.lock.Unlock()
		t.abort(ms)
		return t.notConnected()
	}
	for _, m := range ms[:n] {
		m.Pending = l.nBcast
		m.FCFSNeeded = true
		l.queue.Enqueue(m)
	}
	if n > 0 {
		l.broadcastLocked()
		l.wakeWaitersLocked()
	}
	if t.creditBlocks > 0 && n < len(ms) && l.gen == t.creditGen {
		tail := 0
		for _, m := range ms[n:] {
			tail += m.Blocks
		}
		f.grantCreditLocked(l, tail)
	}
	l.lock.Unlock()
	f.pool.ReleaseBatch(ms[n:])
	return nil
}

// abort returns ms, none of them enqueued, to the region and the whole
// debit to the budget.
func (t *sendTxn) abort(ms []*msg.Message) {
	t.f.pool.ReleaseBatch(ms)
	t.f.refundCredit(t.l, t.creditGen, t.creditBlocks)
}

func (t *sendTxn) notConnected() error {
	return fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, t.id, t.pid)
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
	t, err := f.admit(pid, id, 1, len(buf), f.arena.BlocksFor(len(buf)))
	if err != nil {
		return err
	}
	// First copy: user buffer into message blocks. This happens outside
	// the LNVC lock, which is what lets BROADCAST receivers and other
	// senders proceed concurrently (the concurrency Figure 5 measures).
	m, err := f.pool.Build(pid, buf, f.cfg.SendPolicy == BlockUntilFree, f.stop)
	if err := t.built(err); err != nil {
		return err
	}
	ms := [1]*msg.Message{m}
	if err := t.publish(ms[:], 1); err != nil {
		return err
	}
	f.stats.sends.Add(1)
	f.stats.bytesSent.Add(uint64(len(buf)))
	f.stats.payloadCopiesIn.Add(1)
	return nil
}
