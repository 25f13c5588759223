// Package msg implements MPF messages: a header plus a chain of shared
// memory blocks holding the payload.
//
// The paper's fundamental data structure is the message — "linked message
// blocks together with a header for saving pertinent message information
// (e.g., message length, a pointer to the tail, and a pointer to the next
// message in a list of messages for an LNVC)". This package reproduces
// that header and the two copies the paper performs: message_send copies
// the user buffer into the block chain, message_receive copies the chain
// into the user buffer.
//
// The header additionally carries the reference-counting state that
// internal/core uses to solve the paper's close_receive reclamation
// problem (see DESIGN.md §5): Pending counts BROADCAST receivers that have
// not yet consumed the message, and FCFSNeeded records whether an FCFS
// consumption is still outstanding.
package msg

import (
	"fmt"

	"repro/internal/shm"
)

// Message is a queued MPF message. Headers are ordinary Go objects
// recycled through a Pool; payload lives in the shm arena.
type Message struct {
	// Length is the payload length in bytes.
	Length int
	// Head and Tail are arena offsets of the first and last payload
	// blocks. Tail is kept so appends and sanity checks are O(1), as in
	// the paper's header.
	Head, Tail int32
	// Next links messages in an LNVC's FIFO. It is owned by the LNVC
	// lock.
	Next *Message
	// Seq is the message's position in its LNVC's total order; assigned
	// under the LNVC lock at enqueue. Receivers use it to resume after
	// their private head pointer.
	Seq uint64
	// Sender is the process id of the sending process (for tracing).
	Sender int
	// Pending is the number of BROADCAST receivers that still need this
	// message. FCFSNeeded reports whether an FCFS consumption is still
	// outstanding. Both are manipulated under the LNVC lock.
	Pending    int
	FCFSNeeded bool
	// Blocks is the message's accounted block demand — Arena.BlocksFor
	// of the payload length, recorded at build time. It is the unit the
	// credit ledger debits at allocation and re-grants at reclamation
	// (core's flow control), chosen to match the worst-case demand the
	// capacity checks already use so that debit and grant can never
	// disagree about a message's cost.
	Blocks int
	// Pins counts receivers currently reading the payload outside the
	// LNVC lock — a transient copy (Extract) of a message still queued
	// or a held zero-copy View. (A copying receive that took the message
	// off the queue owns it outright and holds no pin.)
	// A pinned message must not be reclaimed: broadcast receivers
	// release their Pending claim before reading (so other receivers
	// can proceed) but the blocks must survive until the last pin
	// drops. Manipulated under the LNVC lock.
	Pins int
	// Orphan marks a pinned message whose circuit was deleted before
	// the pins drained: the close path cannot release it, so ownership
	// passes to the pin holders and the last unpin releases it (see
	// core's unpin). Set under the LNVC lock.
	Orphan bool
}

// Pool allocates and recycles message headers and their payload chains.
// It is safe for concurrent use only insofar as the underlying arena is;
// header free-listing is guarded by the arena-independent lock in Get/Put
// callers (the LNVC lock in core). To keep the package self-contained the
// pool uses a channel-based free list, which is concurrency-safe on its
// own.
type Pool struct {
	arena *shm.Arena
	free  chan *Message
}

// NewPool creates a pool over arena with capacity for reuse of up to
// maxFree headers; beyond that headers are left to the garbage collector,
// which is the portable analogue of the paper's fixed descriptor free
// lists.
func NewPool(arena *shm.Arena, maxFree int) *Pool {
	if maxFree < 1 {
		maxFree = 1
	}
	return &Pool{arena: arena, free: make(chan *Message, maxFree)}
}

// Arena exposes the backing arena (for receive-side copies).
func (p *Pool) Arena() *shm.Arena { return p.arena }

// Build allocates blocks for buf, copies buf in, and returns a message
// header describing it. The allocation is payload-shaped
// (shm.Arena.AllocPayload): under span allocation the chain is one
// contiguous run of blocks whenever fragmentation permits. If wait is
// true the allocation blocks until enough blocks are free (stop
// aborts); otherwise exhaustion returns shm.ErrOutOfBlocks.
func (p *Pool) Build(sender int, buf []byte, wait bool, stop <-chan struct{}) (*Message, error) {
	m, err := p.BuildLoan(sender, len(buf), wait, stop)
	if err != nil {
		return nil, err
	}
	p.arena.WriteChain(m.Head, buf)
	return m, nil
}

// BuildLoan allocates a chain able to hold n payload bytes and returns
// its header with the payload *uninitialised* — the send-side zero-copy
// primitive. The caller writes the payload in place through View(m)
// (core.Loan does) and the structural send copy never happens.
func (p *Pool) BuildLoan(sender, n int, wait bool, stop <-chan struct{}) (*Message, error) {
	head, tail, err := p.arena.AllocPayload(n, wait, stop)
	if err != nil {
		return nil, err
	}
	m := p.get()
	m.Length = n
	m.Head = head
	m.Tail = tail
	m.Sender = sender
	m.Blocks = p.arena.BlocksFor(n)
	return m, nil
}

// BuildLoanBatch is BuildLoan's batch form: one message header per
// length in ns, every payload chain allocated in a single arena
// transaction (Arena.AllocPayloads) with all payloads uninitialised —
// the allocator half of the batched zero-copy send path (core's
// LoanBatch). Either every message is built or none is; wait and stop
// have Build's semantics, applied to the batch's total block demand.
func (p *Pool) BuildLoanBatch(sender int, ns []int, wait bool, stop <-chan struct{}) ([]*Message, error) {
	if len(ns) == 0 {
		return nil, nil
	}
	heads, tails, err := p.arena.AllocPayloads(ns, wait, stop)
	if err != nil {
		return nil, err
	}
	msgs := make([]*Message, len(ns))
	for i, n := range ns {
		m := p.get()
		m.Length = n
		m.Head = heads[i]
		m.Tail = tails[i]
		m.Sender = sender
		m.Blocks = p.arena.BlocksFor(n)
		msgs[i] = m
	}
	return msgs, nil
}

// View returns a zero-copy window onto m's payload. Validity follows
// block ownership: the caller must hold the message pinned (receive
// views) or own its unsent chain (loans).
func (p *Pool) View(m *Message) View {
	return NewView(p.arena, m.Head, m.Length)
}

// BuildBatch is Build's batch form, BuildLoanBatch plus one WriteChain
// per buffer: every payload block comes from a single arena transaction
// (Arena.AllocPayloads), so the batch costs one free-list lock
// acquisition however many messages and blocks it spans. Either every
// message is built or none is; wait and stop have Build's semantics,
// applied to the batch's total block demand.
func (p *Pool) BuildBatch(sender int, bufs [][]byte, wait bool, stop <-chan struct{}) ([]*Message, error) {
	ns := make([]int, len(bufs))
	for i, buf := range bufs {
		ns[i] = len(buf)
	}
	msgs, err := p.BuildLoanBatch(sender, ns, wait, stop)
	if err != nil {
		return nil, err
	}
	for i, m := range msgs {
		p.arena.WriteChain(m.Head, bufs[i])
	}
	return msgs, nil
}

// Extract copies the message payload into buf and returns the number of
// bytes copied (min of message length and len(buf)), mirroring
// message_receive's buffer-length semantics.
func (p *Pool) Extract(m *Message, buf []byte) int {
	if m.Length == 0 {
		return 0
	}
	return p.arena.ReadChain(m.Head, m.Length, buf)
}

// Release returns the message's blocks to the arena and its header to the
// pool. The caller must guarantee no receiver still needs m.
func (p *Pool) Release(m *Message) {
	if m.Head != shm.NilOffset {
		p.arena.FreeChain(m.Head)
	}
	p.put(m)
}

// ReleaseBatch returns a whole batch of messages' blocks to the arena
// in one free-pool transaction (Arena.FreeChains) and their headers to
// the pool — Release amortised the same way BuildLoanBatch amortises
// Build. The caller must guarantee no receiver still needs any of them.
func (p *Pool) ReleaseBatch(ms []*Message) {
	if len(ms) == 0 {
		return
	}
	var headsBuf [16]int32
	heads := headsBuf[:0]
	for _, m := range ms {
		if m.Head != shm.NilOffset {
			heads = append(heads, m.Head)
		}
	}
	p.arena.FreeChains(heads)
	for _, m := range ms {
		p.put(m)
	}
}

func (p *Pool) get() *Message {
	select {
	case m := <-p.free:
		*m = Message{}
		return m
	default:
		return &Message{}
	}
}

func (p *Pool) put(m *Message) {
	m.Head = shm.NilOffset
	m.Tail = shm.NilOffset
	m.Next = nil
	select {
	case p.free <- m:
	default:
	}
}

// Check verifies header/chain consistency in either allocation mode:
// the chain's segments cover exactly Length payload bytes (the last
// segment is load-bearing — no over-allocation), a zero-length message
// still occupies one segment, and Tail is the chain's last segment. For
// tests.
func (p *Pool) Check(m *Message) error {
	if m.Head == shm.NilOffset {
		return fmt.Errorf("msg: %d-byte message has no chain", m.Length)
	}
	capacity, lastCap, segs := 0, 0, 0
	tail := m.Head
	for off := m.Head; off != shm.NilOffset; off = p.arena.Next(off) {
		lastCap = len(p.arena.SegPayload(off))
		capacity += lastCap
		segs++
		tail = off
	}
	if capacity < m.Length {
		return fmt.Errorf("msg: %d-byte message has chain capacity %d", m.Length, capacity)
	}
	if segs > 1 && capacity-lastCap >= m.Length {
		return fmt.Errorf("msg: %d-byte message over-allocated: %d segments, capacity %d without the last",
			m.Length, segs, capacity-lastCap)
	}
	if m.Length == 0 && segs != 1 {
		return fmt.Errorf("msg: zero-length message has %d segments, want 1", segs)
	}
	if tail != m.Tail {
		return fmt.Errorf("msg: tail pointer %d does not match chain end %d", m.Tail, tail)
	}
	return nil
}

// Queue is the FIFO of messages inside an LNVC descriptor, a singly
// linked list with head and tail pointers exactly as in the paper's
// Figure 2. All methods must be called under the LNVC lock.
type Queue struct {
	head, tail *Message
	n          int
	nextSeq    uint64
}

// Enqueue appends m and assigns its sequence number.
func (q *Queue) Enqueue(m *Message) {
	m.Seq = q.nextSeq
	q.nextSeq++
	m.Next = nil
	if q.tail == nil {
		q.head = m
	} else {
		q.tail.Next = m
	}
	q.tail = m
	q.n++
}

// Head returns the oldest queued message, or nil.
func (q *Queue) Head() *Message { return q.head }

// Len returns the number of queued messages (the paper's "number of
// queued messages" descriptor field).
func (q *Queue) Len() int { return q.n }

// NextSeq returns the sequence number the next enqueued message will get.
func (q *Queue) NextSeq() uint64 { return q.nextSeq }

// Remove unlinks m from the queue. prev must be m's predecessor or nil if
// m is the head. Core tracks predecessors while scanning for reclaimable
// messages.
func (q *Queue) Remove(m, prev *Message) {
	if prev == nil {
		if q.head != m {
			panic("msg: Remove head mismatch")
		}
		q.head = m.Next
	} else {
		if prev.Next != m {
			panic("msg: Remove prev mismatch")
		}
		prev.Next = m.Next
	}
	if q.tail == m {
		q.tail = prev
	}
	m.Next = nil
	q.n--
}

// Walk calls f for each message in FIFO order together with its
// predecessor; returning false stops the walk. f must not mutate the
// queue; use the returned (m, prev) pairs with Remove afterwards.
func (q *Queue) Walk(f func(m, prev *Message) bool) {
	var prev *Message
	for m := q.head; m != nil; {
		next := m.Next
		if !f(m, prev) {
			return
		}
		prev = m
		m = next
	}
}

// After returns the first message with Seq >= seq, or nil. This is how a
// receiver's private head "pointer" (a sequence number) is dereferenced.
func (q *Queue) After(seq uint64) *Message {
	for m := q.head; m != nil; m = m.Next {
		if m.Seq >= seq {
			return m
		}
	}
	return nil
}
