// Package fastpath implements the two restricted message-passing schemes
// the paper's conclusion proposes as future work (§5):
//
//	"One method to improve the performance of the MPF system is to
//	restrict the generality of message communication ... to support
//	synchronous message passing, copying of data from a sending buffer
//	to a linked message buffer and then to the receiving buffer is
//	unnecessary; direct data transfer is possible. Furthermore, if only
//	one-to-one communication is implemented, all locking associated
//	with message handling is removed."
//
// Ring is the lock-free one-to-one circuit: a single-producer,
// single-consumer byte ring with no locks at all — only two atomic
// cursors. Rendezvous is the synchronous scheme: sender and receiver
// meet and the payload moves with a single copy, skipping the
// intermediate message blocks entirely.
//
// The ablation benchmarks at the repository root quantify both against
// the general LNVC implementation.
package fastpath

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed Ring or Rendezvous.
var ErrClosed = errors.New("fastpath: closed")

// ErrTooBig is returned when a message cannot ever fit the ring.
var ErrTooBig = errors.New("fastpath: message larger than ring capacity")

// recHeader is the per-record length prefix inside the ring.
const recHeader = 4

// skipMarker marks unusable space before the ring's wrap point.
const skipMarker = ^uint32(0)

// Ring is a lock-free single-producer single-consumer circuit carrying
// variable-length messages. Exactly one goroutine may send and one may
// receive; that restriction is the point — it removes every lock from
// the message path. Records never wrap: if a record does not fit before
// the end of the buffer, a skip marker is written and the record starts
// at offset 0.
type Ring struct {
	buf  []byte
	mask uint64

	// head is read/written by the consumer, tail by the producer; each
	// reads the other's cursor with atomics. Padding between them keeps
	// the two cursors off one cache line — false sharing on a shared
	// bus is exactly the traffic the Balance design avoided too.
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64
	_    [56]byte

	closed atomic.Bool

	// Zero-copy cursor state. resTail/resActive belong to the producer
	// (Reserve/CommitReserve), peekNext/peekActive to the consumer
	// (Peek/Consume); neither crosses goroutines, so no atomics — the
	// padding keeps the producer's fields off the consumer's line.
	resActive  bool
	resTail    uint64
	_          [48]byte
	peekActive bool
	peekNext   uint64
}

// NewRing creates a ring with at least capacity bytes of buffer
// (rounded up to a power of two, minimum 64).
func NewRing(capacity int) (*Ring, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("fastpath: ring capacity %d", capacity)
	}
	if capacity < 64 {
		capacity = 64
	}
	capacity = 1 << bits.Len(uint(capacity-1)) // next power of two
	return &Ring{buf: make([]byte, capacity), mask: uint64(capacity - 1)}, nil
}

// Cap returns the ring's buffer size in bytes.
func (r *Ring) Cap() int { return len(r.buf) }

// Close marks the ring closed. A blocked Recv drains remaining messages
// and then returns ErrClosed; Send fails immediately.
func (r *Ring) Close() {
	r.closed.Store(true)
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// place carves an n-byte record out of the buffer at the unpublished
// cursor tail, writing the length header (and a skip marker when the
// record must wrap) and returning the record's buffer offset and the
// advanced cursor. It does NOT publish: the caller stores r.tail, which
// is what lets a batch of records — or an in-place reservation — go out
// under one cursor publish.
func (r *Ring) place(tail, head uint64, n int) (off, newTail uint64, ok bool) {
	need := uint64(recHeader + n)
	capacity := uint64(len(r.buf))
	off = tail & r.mask
	roomToEnd := capacity - off

	if roomToEnd < need {
		// Must wrap: burn roomToEnd bytes with a skip marker, then the
		// record starts at offset 0. The skip itself needs header room.
		if capacity-(tail-head) < roomToEnd+need {
			return 0, tail, false
		}
		if roomToEnd >= recHeader {
			putLE32(r.buf[off:], skipMarker)
		}
		// roomToEnd < recHeader cannot happen: records are 4-byte
		// aligned by construction (header 4, payload padded below).
		tail += roomToEnd
		off = 0
	} else if capacity-(tail-head) < need {
		return 0, tail, false
	}
	putLE32(r.buf[off:], uint32(n))
	// Pad the record to 4-byte alignment so headers stay aligned and
	// the skip-marker invariant above holds.
	return off, tail + pad4(need), true
}

// TrySend attempts to enqueue msg without blocking. It reports false if
// the ring lacks space. Messages larger than Cap()-8 return ErrTooBig.
func (r *Ring) TrySend(msg []byte) (bool, error) {
	if r.resActive {
		// A send would write at the same unpublished cursor as the
		// reservation and corrupt the record headers; fail loudly like
		// every other zero-copy misuse path.
		panic("fastpath: TrySend with a reservation outstanding")
	}
	if r.closed.Load() {
		return false, ErrClosed
	}
	if uint64(recHeader+len(msg)) > uint64(len(r.buf))-recHeader {
		return false, ErrTooBig
	}
	off, tail, ok := r.place(r.tail.Load(), r.head.Load(), len(msg))
	if !ok {
		return false, nil
	}
	copy(r.buf[off+recHeader:], msg)
	r.tail.Store(tail) // publish
	return true, nil
}

// TryRecv attempts to dequeue one message into buf without blocking,
// returning the byte count (truncated to len(buf)) and whether a message
// was consumed.
func (r *Ring) TryRecv(buf []byte) (int, bool, error) {
	if r.peekActive {
		// Consuming here would strand the peek's saved cursor behind the
		// ring's, and the later Consume would rewind head over records
		// already taken.
		panic("fastpath: TryRecv with a peek outstanding")
	}
	head := r.head.Load()
	tail := r.tail.Load()
	capacity := uint64(len(r.buf))
	for {
		if head == tail {
			if r.closed.Load() {
				// Re-check emptiness after observing closed, so a send
				// that completed before Close is not lost.
				if r.head.Load() == r.tail.Load() {
					return 0, false, ErrClosed
				}
				tail = r.tail.Load()
				continue
			}
			return 0, false, nil
		}
		off := head & r.mask
		hdr := le32(r.buf[off:])
		if hdr == skipMarker || capacity-off < recHeader {
			head += capacity - off
			r.head.Store(head)
			continue
		}
		n := copy(buf, r.buf[off+recHeader:off+recHeader+uint64(hdr)])
		r.head.Store(head + pad4(uint64(recHeader)+uint64(hdr)))
		return n, true, nil
	}
}

// Reserve carves an n-byte record out of the ring and returns it as a
// writable slice — the zero-copy counterpart of TrySend: the producer
// writes the payload in place and the structural copy never happens.
// It reports false when the ring currently lacks space, ErrTooBig when
// n can never fit, ErrClosed after Close. Nothing is visible to the
// consumer until CommitReserve publishes the cursor; AbortReserve
// discards the record instead. At most one reservation may be
// outstanding, and the producer must not interleave TrySend with an
// outstanding reservation (both write at the same unpublished
// cursor). Producer-side only, like all sends.
func (r *Ring) Reserve(n int) ([]byte, bool, error) {
	if r.resActive {
		panic("fastpath: Reserve with a reservation outstanding")
	}
	if r.closed.Load() {
		return nil, false, ErrClosed
	}
	if n < 0 || uint64(recHeader+n) > uint64(len(r.buf))-recHeader {
		return nil, false, ErrTooBig
	}
	off, newTail, ok := r.place(r.tail.Load(), r.head.Load(), n)
	if !ok {
		return nil, false, nil
	}
	r.resActive = true
	r.resTail = newTail
	return r.buf[off+recHeader : off+recHeader+uint64(n)], true, nil
}

// ReserveBatch carves up to len(ns) records out of the ring in one
// reservation — the batch form of Reserve. It returns
// writable payload slices for the prefix of ns that currently fits
// (possibly none: a nil slice with a nil error means the ring lacks
// space right now); the producer writes the payloads in place and one
// CommitReserve publishes the whole batch with a single cursor store
// and a single wakeup, or one AbortReserve discards it all. A length
// that can never fit (greater than Cap()-8) stops the batch: the
// reserved prefix before it is still returned, alongside ErrTooBig.
// The reservation rules are Reserve's: at most one outstanding, no
// interleaved sends, producer-side only.
func (r *Ring) ReserveBatch(ns []int) ([][]byte, error) {
	if r.resActive {
		panic("fastpath: ReserveBatch with a reservation outstanding")
	}
	if r.closed.Load() {
		return nil, ErrClosed
	}
	head := r.head.Load()
	tail := r.tail.Load()
	var out [][]byte
	var err error
	for _, n := range ns {
		if n < 0 || uint64(recHeader+n) > uint64(len(r.buf))-recHeader {
			err = ErrTooBig
			break
		}
		off, newTail, ok := r.place(tail, head, n)
		if !ok {
			break
		}
		out = append(out, r.buf[off+recHeader:off+recHeader+uint64(n)])
		tail = newTail
	}
	if len(out) == 0 {
		return nil, err
	}
	r.resActive = true
	r.resTail = tail
	return out, err
}

// CommitReserve publishes the records of the last Reserve or
// ReserveBatch, making them visible to the consumer with a single
// cursor store.
func (r *Ring) CommitReserve() {
	if !r.resActive {
		panic("fastpath: CommitReserve without a reservation")
	}
	r.resActive = false
	r.tail.Store(r.resTail) // publish
}

// AbortReserve discards the outstanding reservation (single or batch).
// The cursor never moved, so the records (and any skip marker written
// for them) are simply overwritten by the next send.
func (r *Ring) AbortReserve() {
	if !r.resActive {
		panic("fastpath: AbortReserve without a reservation")
	}
	r.resActive = false
}

// Peek returns the next record's payload in place, without consuming
// it — the zero-copy counterpart of TryRecv: the consumer reads the
// ring's memory directly and Consume retires the record afterwards.
// It reports false when the ring is empty; after Close it drains
// remaining records and then returns ErrClosed. The slice is valid
// until Consume; a second Peek before Consume returns the same record.
// Consumer-side only, like all receives.
func (r *Ring) Peek() ([]byte, bool, error) {
	head := r.head.Load()
	tail := r.tail.Load()
	capacity := uint64(len(r.buf))
	for {
		if head == tail {
			if r.closed.Load() {
				// Re-check emptiness after observing closed, so a send
				// that completed before Close is not lost.
				if r.head.Load() == r.tail.Load() {
					return nil, false, ErrClosed
				}
				tail = r.tail.Load()
				continue
			}
			return nil, false, nil
		}
		off := head & r.mask
		hdr := le32(r.buf[off:])
		if hdr == skipMarker || capacity-off < recHeader {
			head += capacity - off
			r.head.Store(head)
			continue
		}
		r.peekActive = true
		r.peekNext = head + pad4(uint64(recHeader)+uint64(hdr))
		return r.buf[off+recHeader : off+recHeader+uint64(hdr)], true, nil
	}
}

// Consume retires the record returned by the last Peek, publishing the
// consumer cursor past it. The peeked slice is invalid afterwards (the
// producer may overwrite it).
func (r *Ring) Consume() {
	if !r.peekActive {
		panic("fastpath: Consume without a Peek")
	}
	r.peekActive = false
	r.head.Store(r.peekNext)
}

// PeekBatch returns up to max records' payloads in place, without
// consuming any — the batch form of Peek: the
// consumer reads the ring's memory directly and one ConsumeBatch
// retires the whole run with a single cursor publish. It returns nil
// when the ring is empty; after Close it drains remaining records and
// then returns ErrClosed. The slices are valid until ConsumeBatch; at
// most one peek (single or batch) may be outstanding. Consumer-side
// only, like all receives.
func (r *Ring) PeekBatch(max int) ([][]byte, error) {
	if r.peekActive {
		panic("fastpath: PeekBatch with a peek outstanding")
	}
	if max <= 0 {
		return nil, nil
	}
	capacity := uint64(len(r.buf))
	for {
		head := r.head.Load()
		tail := r.tail.Load()
		cur := head
		var out [][]byte
		for len(out) < max {
			if cur == tail {
				tail = r.tail.Load() // refresh: more may have arrived
				if cur == tail {
					break
				}
			}
			off := cur & r.mask
			hdr := le32(r.buf[off:])
			if hdr == skipMarker || capacity-off < recHeader {
				// A skip marker is only published together with the
				// record that follows it at offset 0, so jumping it
				// never runs past the tail.
				cur += capacity - off
				continue
			}
			out = append(out, r.buf[off+recHeader:off+recHeader+uint64(hdr)])
			cur += pad4(uint64(recHeader) + uint64(hdr))
		}
		if len(out) == 0 {
			if r.closed.Load() {
				// Re-check emptiness after observing closed, so a send
				// that completed before Close is not lost.
				if r.head.Load() == r.tail.Load() {
					return nil, ErrClosed
				}
				continue
			}
			return nil, nil
		}
		r.peekActive = true
		r.peekNext = cur
		return out, nil
	}
}

// ConsumeBatch retires every record returned by the last PeekBatch,
// publishing the consumer cursor past the run in one store. The peeked
// slices are invalid afterwards.
func (r *Ring) ConsumeBatch() {
	if !r.peekActive {
		panic("fastpath: ConsumeBatch without a PeekBatch")
	}
	r.peekActive = false
	r.head.Store(r.peekNext)
}

// Send blocks (spinning with backoff) until msg is enqueued.
func (r *Ring) Send(msg []byte) error {
	for spin := 0; ; spin++ {
		ok, err := r.TrySend(msg)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if spin > 64 {
			runtime.Gosched()
		}
	}
}

// Recv blocks (spinning with backoff) until a message is dequeued.
func (r *Ring) Recv(buf []byte) (int, error) {
	for spin := 0; ; spin++ {
		n, ok, err := r.TryRecv(buf)
		if err != nil {
			return 0, err
		}
		if ok {
			return n, nil
		}
		if spin > 64 {
			runtime.Gosched()
		}
	}
}

func pad4(n uint64) uint64 { return (n + 3) &^ 3 }

// Rendezvous is the synchronous transfer scheme: Send blocks until a
// receiver arrives and the payload is copied exactly once, from the
// sender's buffer straight into the receiver's. Multiple senders and
// receivers may use one Rendezvous; pairs meet one at a time.
type Rendezvous struct {
	mu       sync.Mutex
	sendQ    *sync.Cond // senders waiting for a receiver
	recvQ    *sync.Cond // receivers waiting for a sender
	doneCond *sync.Cond

	offer  []byte // current sender's buffer, nil if none
	taken  bool   // receiver has copied the offer
	result int    // bytes copied
	closed bool
}

// NewRendezvous creates a synchronous circuit.
func NewRendezvous() *Rendezvous {
	v := &Rendezvous{}
	v.sendQ = sync.NewCond(&v.mu)
	v.recvQ = sync.NewCond(&v.mu)
	v.doneCond = sync.NewCond(&v.mu)
	return v
}

// Close aborts all blocked and future operations with ErrClosed.
func (v *Rendezvous) Close() {
	v.mu.Lock()
	v.closed = true
	v.sendQ.Broadcast()
	v.recvQ.Broadcast()
	v.doneCond.Broadcast()
	v.mu.Unlock()
}

// Send blocks until a receiver has copied buf directly out of the
// caller's memory — one copy total, the optimisation the paper
// describes.
func (v *Rendezvous) Send(buf []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	// Wait for the offer slot.
	for v.offer != nil && !v.closed {
		v.sendQ.Wait()
	}
	if v.closed {
		return ErrClosed
	}
	if buf == nil {
		buf = []byte{} // non-nil marks the slot occupied
	}
	v.offer = buf
	v.taken = false
	v.recvQ.Signal()
	for !v.taken && !v.closed {
		v.doneCond.Wait()
	}
	if !v.taken && v.closed {
		v.offer = nil
		return ErrClosed
	}
	v.offer = nil
	v.sendQ.Signal()
	return nil
}

// Recv blocks until a sender offers a payload, copies it into buf
// (truncating to len(buf)), and returns the byte count.
func (v *Rendezvous) Recv(buf []byte) (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for (v.offer == nil || v.taken) && !v.closed {
		v.recvQ.Wait()
	}
	if v.offer == nil || v.taken {
		return 0, ErrClosed
	}
	n := copy(buf, v.offer)
	v.taken = true
	v.result = n
	v.doneCond.Broadcast()
	return n, nil
}
