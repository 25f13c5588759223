package core

import (
	"fmt"
	"time"

	"repro/internal/msg"
)

// Batched send and receive. The single-message primitives pay their
// fixed costs — registry lookup, LNVC lock acquisition, condition
// broadcast, arena free-list lock — once per message. The batch
// primitives pay them once per *batch*: SendBatch is one admit, one
// arena transaction (msg.Pool.BuildBatch) and one publish, which links
// the whole run of messages into the FIFO under one LNVC lock
// acquisition and wakes waiters once; ReceiveBatch claims as many
// queued messages as the caller has buffers under one acquisition and
// copies them out together. At high concurrency this is what flattens
// the contention curves the paper's Figures 4-6 show bending over (see
// DESIGN.md §6).

// SendBatch transfers every buffer in bufs to the LNVC as one message
// each, atomically with respect to other senders: the batch occupies
// consecutive sequence numbers and no other sender's message interleaves
// it. An empty batch validates the connection and returns. Either the
// whole batch is enqueued or none of it is.
func (f *Facility) SendBatch(pid int, id ID, bufs [][]byte) error {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	err := f.sendBatch(pid, id, bufs, total)
	f.trace(Event{Op: OpSendBatch, PID: pid, LNVC: id, Bytes: total, Err: err})
	return err
}

func (f *Facility) sendBatch(pid int, id ID, bufs [][]byte, total int) error {
	blocks := 0
	for _, b := range bufs {
		blocks += f.arena.BlocksFor(len(b))
	}
	t, err := f.admit(pid, id, len(bufs), total, blocks)
	if err != nil || len(bufs) == 0 {
		return err
	}
	// One arena transaction for the whole batch; the copies into the
	// blocks happen outside the LNVC lock.
	msgs, err := f.pool.BuildBatch(pid, bufs, f.cfg.SendPolicy == BlockUntilFree, f.stop)
	if err := t.built(err); err != nil {
		return err
	}
	if err := t.publish(msgs, len(msgs)); err != nil {
		return err
	}
	f.stats.sends.Add(uint64(len(msgs)))
	f.stats.batchSends.Add(1)
	f.stats.bytesSent.Add(uint64(total))
	f.stats.payloadCopiesIn.Add(uint64(len(msgs)))
	return nil
}

// ReceiveBatch blocks until at least one message is available for pid's
// connection, then consumes as many as are available — at most
// len(bufs), one message per buffer, each truncated to its buffer — in
// one LNVC lock acquisition. It returns the per-message byte counts; the
// length of the returned slice is the number of messages consumed.
func (f *Facility) ReceiveBatch(pid int, id ID, bufs [][]byte) ([]int, error) {
	ns, err := f.receiveBatch(pid, id, bufs, nil)
	f.trace(Event{Op: OpReceiveBatch, PID: pid, LNVC: id, Bytes: sumInts(ns), Err: err})
	return ns, err
}

// ReceiveBatchDeadline is ReceiveBatch with a bound on the wait for the
// first message; it returns ErrTimeout if none arrives in time. Once one
// message is available the batch never waits for more.
func (f *Facility) ReceiveBatchDeadline(pid int, id ID, bufs [][]byte, d time.Duration) ([]int, error) {
	if d <= 0 {
		return nil, fmt.Errorf("%w: non-positive deadline %v", ErrTimeout, d)
	}
	deadline := time.Now().Add(d)
	ns, err := f.receiveBatch(pid, id, bufs, &deadline)
	f.trace(Event{Op: OpReceiveBatch, PID: pid, LNVC: id, Bytes: sumInts(ns), Err: err})
	return ns, err
}

func (f *Facility) receiveBatch(pid int, id ID, bufs [][]byte, deadline *time.Time) ([]int, error) {
	// Every claim pins its message; the copies happen outside the lock
	// and one unpinAll ends them all.
	claimed := make([]*msg.Message, len(bufs))
	c, n, err := f.claimWait(pid, id, claimed, false, true, deadline)
	if err != nil || n == 0 {
		return nil, err
	}
	claimed = claimed[:n]
	ns := make([]int, n)
	total := 0
	for i, m := range claimed {
		ns[i] = f.pool.Extract(m, bufs[i])
		total += ns[i]
	}
	f.stats.payloadCopiesOut.Add(uint64(n))

	f.unpinAll(c.l, claimed)

	f.stats.receives.Add(uint64(n))
	f.stats.batchReceives.Add(1)
	f.stats.bytesRecvd.Add(uint64(total))
	return ns, nil
}

func sumInts(ns []int) int {
	t := 0
	for _, n := range ns {
		t += n
	}
	return t
}
