// Package shm implements the shared-memory region that backs MPF.
//
// The original MPF mapped a region of physical memory into the virtual
// address space of every Unix process in the program and carved it into a
// free list of fixed-size message blocks at init time; all message payload
// flowed through those blocks. Goroutines share a heap, so a mapped region
// is not *needed* for correctness — but the region is load-bearing for the
// paper's performance story (Figure 3's asymptote is a copy-cost asymptote,
// and the per-block overhead of the linked free list is why small blocks
// hurt). This package therefore reproduces the layout faithfully:
//
//   - one contiguous byte arena, sized at Init from maxLNVCs/maxProcesses;
//   - fixed-size blocks addressed by int32 *offsets* (the portable stand-in
//     for pointers into a mapped region — offsets survive being mapped at
//     different addresses in different processes, which is exactly why the
//     original used them);
//   - a lock-protected singly-linked free list threaded through the blocks
//     themselves, with the link word stored in the block's first 4 bytes
//     when free.
//
// Beyond the paper, the arena offers a contiguous-span allocation mode
// (Config.Spans): a free *bitmap* replaces the linked list and a payload
// is placed, whenever fragmentation permits, in one run of physically
// adjacent blocks carrying a single link word. A multi-kilobyte message
// then occupies one contiguous byte range instead of a chain of 60-byte
// fragments — which is what lets the zero-copy plane (msg.View,
// core.SendLoan/ReceiveView) hand callers a single writable or readable
// slice instead of walking a chain. Chains still exist in span mode —
// a chain element is simply a span of one or more blocks, described by
// SegPayload — and every chain API (WriteChain, ReadChain, FreeChain)
// is span-aware. The classic linked-list layout remains the fidelity
// baseline (core's ClassicChains / mpf.WithClassicChains) and the copy
// ablation's paper-plane configuration.
//
// Allocation has one shape in both modes: a chain able to hold an n-byte
// payload, taken singly (AllocPayload) or as a batch under one lock
// acquisition (AllocPayloads), and returned by FreeChain or FreeChains.
// A classic n-block chain is a payload of n*PayloadSize() bytes.
//
// The arena is safe for concurrent use.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/spinlock"
)

// NilOffset is the arena's nil pointer. Offset 0 is deliberately burned
// (the first block starts at blockSize) so that the zero value of an
// offset-valued field is unmistakably invalid, the same trick the original
// played by reserving the region's first word.
const NilOffset int32 = 0

// ErrOutOfBlocks is returned by AllocPayload and AllocPayloads when the
// free pool cannot meet a non-waiting request, when a wait is aborted by
// stop, and (wrapped) when a demand exceeds the whole region.
var ErrOutOfBlocks = errors.New("shm: out of message blocks")

// MinBlockSize is the smallest usable block: the free-list link word plus
// at least one payload byte. The paper ran with 10-byte blocks, which this
// bound admits.
const MinBlockSize = 5

// Arena is a shared region divided into fixed-size blocks.
type Arena struct {
	mem       []byte
	blockSize int32
	nBlocks   int32
	spans     bool

	mu       spinlock.TAS
	freeHead int32 // classic mode: offset of first free block, NilOffset if none
	nFree    int32

	// Span mode replaces the linked free list with a bitmap so runs of
	// physically adjacent free blocks can be found: bit i set means
	// block i (at offset (i+1)*blockSize) is free. spanLen[i] records,
	// for an allocated span starting at block i, how many blocks it
	// covers — the metadata FreeChain and SegPayload need, kept at the
	// side because the span's interior has no per-block link words.
	// lowFree is a lower bound on the lowest free block index (no free
	// bit exists below it); every scan starts there and tightens it, so
	// allocations do not re-walk a long-lived allocated prefix while
	// holding the lock. Frees lower it again.
	freeBits []uint64
	spanLen  []int32
	lowFree  int32

	// waiters is the number of goroutines blocked in lockFree; guarded
	// by mu, signalled via cond.
	cond    condSignal
	waiters int32

	stats Stats
	huge  HugeStats
}

// condSignal is a tiny condition variable over the arena spinlock. A full
// sync.Cond would also work; this variant exists so the arena has no
// dependency on sync and so tests can count wakeups.
type condSignal struct {
	ch chan struct{}
}

func (c *condSignal) init() { c.ch = make(chan struct{}) }

// Stats counts allocator activity. Read it via Arena.Stats.
type Stats struct {
	Allocs      uint64 // blocks allocated
	Frees       uint64 // blocks returned
	AllocFails  uint64 // non-waiting allocations that found too few free blocks
	AllocBlocks uint64 // blocked waits for free blocks
	HighWater   int32  // maximum simultaneously-allocated blocks
}

// HugeStats records the outcome of the huge-page hint, in the style of
// LockStats: set once at creation, read lock-free by the bench so it
// can report whether the hint took on this run.
type HugeStats struct {
	// Requested mirrors Config.HugePages.
	Requested bool
	// AdvisedBytes is how much of the region madvise actually covered
	// after shrinking to 2 MiB boundaries (0 when the region is too
	// small, the platform has no madvise, or the call failed).
	AdvisedBytes int64
	// Err holds the madvise failure, if any; advisory, never fatal.
	Err error
}

// Config sizes an Arena.
type Config struct {
	// BlockSize is the size of each block in bytes, including the 4-byte
	// link word. The paper's experiments used 10.
	BlockSize int
	// NumBlocks is the number of blocks in the region.
	NumBlocks int
	// Spans selects the contiguous-span allocation mode: payloads are
	// placed in runs of adjacent blocks (single-segment views) found
	// via a free bitmap instead of the paper's linked free list. All
	// chain APIs work identically in both modes.
	Spans bool
	// HugePages asks the kernel to back the region with transparent
	// huge pages (madvise MADV_HUGEPAGE on the region's huge-page-
	// aligned interior). Purely advisory: unsupported platforms and
	// small regions degrade to base pages; HugeStats reports whether
	// and how far the hint took.
	HugePages bool
}

// SizeFor estimates the arena configuration for a facility with the given
// limits, mirroring the paper's init(maxLNVCs, maxProcesses) sizing rule:
// enough blocks for every process to have several maximum-size messages in
// flight on every LNVC it plausibly uses.
func SizeFor(maxLNVCs, maxProcs, blockSize, msgBlocksPerProc int) Config {
	if blockSize < MinBlockSize {
		blockSize = MinBlockSize
	}
	if msgBlocksPerProc <= 0 {
		msgBlocksPerProc = 64
	}
	n := maxProcs * msgBlocksPerProc
	if min := 4 * maxLNVCs; n < min {
		n = min
	}
	if n < 64 {
		n = 64
	}
	return Config{BlockSize: blockSize, NumBlocks: n}
}

// Bytes returns the region size the configuration occupies — what a
// caller carving an arena out of a shared segment must reserve for
// NewAt. The +1 burns offset 0 so NilOffset stays unmistakably
// invalid.
func (cfg Config) Bytes() int64 {
	return int64(cfg.BlockSize) * int64(cfg.NumBlocks+1)
}

// New creates an arena over a fresh process-private region.
func New(cfg Config) (*Arena, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	return NewAt(cfg, make([]byte, cfg.Bytes()))
}

// NewAt creates an arena over caller-provided memory — the segment
// window that makes the region truly shared: point it at
// Segment.At(arenaOff, cfg.Bytes()) and every offset the arena hands
// out (message chains, loan spans, view payloads) is resolvable by any
// process that mapped the same segment. mem must be cfg.Bytes() long
// and zeroed (fresh segments are).
//
// Only the block *bytes* live in mem. The allocator's own state — the
// free bitmap, span lengths, the spinlock, waiter bookkeeping — stays
// in this process's heap: the arena has exactly one allocating owner
// (the serving parent), and attached peers only dereference offsets
// they were handed over a ring. See DESIGN.md §15 for why the
// single-allocator model is the right cut.
func NewAt(cfg Config, mem []byte) (*Arena, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if int64(len(mem)) != cfg.Bytes() {
		return nil, fmt.Errorf("shm: arena region is %d bytes, config needs %d", len(mem), cfg.Bytes())
	}
	a := &Arena{
		mem:       mem,
		blockSize: int32(cfg.BlockSize),
		nBlocks:   int32(cfg.NumBlocks),
		spans:     cfg.Spans,
	}
	a.cond.init()
	if cfg.HugePages {
		a.huge.Requested = true
		a.huge.AdvisedBytes, a.huge.Err = AdviseHugeBytes(mem)
	}
	if a.spans {
		a.freeBits = make([]uint64, (cfg.NumBlocks+63)/64)
		for i := 0; i < cfg.NumBlocks; i++ {
			a.freeBits[i/64] |= 1 << (i % 64)
		}
		a.spanLen = make([]int32, cfg.NumBlocks)
		a.freeHead = NilOffset
	} else {
		// Thread the free list through the blocks, first block at offset
		// blockSize (offset 0 is reserved as NilOffset).
		a.freeHead = a.blockSize
		for i := int32(0); i < a.nBlocks; i++ {
			off := (i + 1) * a.blockSize
			next := off + a.blockSize
			if i == a.nBlocks-1 {
				next = NilOffset
			}
			a.setLink(off, next)
		}
	}
	a.nFree = a.nBlocks
	return a, nil
}

// check validates a configuration's block geometry.
func (cfg Config) check() error {
	if cfg.BlockSize < MinBlockSize {
		return fmt.Errorf("shm: block size %d below minimum %d", cfg.BlockSize, MinBlockSize)
	}
	if cfg.NumBlocks < 1 {
		return fmt.Errorf("shm: need at least 1 block, got %d", cfg.NumBlocks)
	}
	if cfg.Bytes() > 1<<31-1 {
		return fmt.Errorf("shm: region of %d bytes exceeds 2 GiB offset space", cfg.Bytes())
	}
	return nil
}

// Spans reports whether the arena runs in contiguous-span mode.
func (a *Arena) Spans() bool { return a.spans }

// BlockSize returns the configured block size including the link word.
func (a *Arena) BlockSize() int { return int(a.blockSize) }

// PayloadSize returns the usable payload bytes per block.
func (a *Arena) PayloadSize() int { return int(a.blockSize) - 4 }

// NumBlocks returns the total number of blocks in the region.
func (a *Arena) NumBlocks() int { return int(a.nBlocks) }

// FreeBlocks returns the current number of free blocks.
func (a *Arena) FreeBlocks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.nFree)
}

// Stats returns a snapshot of allocator statistics.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// LockStats reports the free-pool lock's traffic: total acquisitions
// and the subset whose first attempt found the lock held. This is the
// number the batched payload plane amortises — a LoanBatch of k
// messages costs one acquisition here where k single loans cost k —
// and what mpfbench -loanbatch asserts on. Reading it takes no lock,
// so snapshots can bracket a measured interval without perturbing it
// (note that FreeBlocks and Stats each cost one acquisition).
func (a *Arena) LockStats() (acquisitions, contended uint64) {
	return a.mu.Stats()
}

// HugeStats reports the huge-page hint's outcome for this arena's
// region. Like LockStats it takes no lock: the fields are written once
// at creation.
func (a *Arena) HugeStats() HugeStats { return a.huge }

func (a *Arena) setLink(off, next int32) {
	binary.LittleEndian.PutUint32(a.mem[off:off+4], uint32(next))
}

func (a *Arena) link(off int32) int32 {
	return int32(binary.LittleEndian.Uint32(a.mem[off : off+4]))
}

// offsetOf converts a block index to its arena offset; blockIndex is the
// inverse. Block 0 lives at offset blockSize (offset 0 is NilOffset).
func (a *Arena) offsetOf(idx int32) int32   { return (idx + 1) * a.blockSize }
func (a *Arena) blockIndex(off int32) int32 { return off/a.blockSize - 1 }

// bestRunLocked scans for a run of want consecutive free blocks,
// starting at the lowFree bound (no free block exists below it). It
// returns the first such run immediately, trimmed to want; failing
// that, the longest run found (the earliest of equals; length 0 when
// the region is exhausted). The scan moves a word at a time: an empty
// word ends the current run, and within a word each run is located and
// measured with two trailing-zero counts, so a scan costs O(words) plus
// O(runs) rather than O(blocks). The first free block the scan meets
// tightens lowFree.
func (a *Arena) bestRunLocked(want int32) (start, length int32) {
	var bestStart, bestLen, runStart, runLen int32
	first := true
	for w := int(a.lowFree / 64); w < len(a.freeBits); w++ {
		x := a.freeBits[w]
		base := int32(w * 64)
		for x != 0 {
			s := int32(bits.TrailingZeros64(x))
			if s != 0 || runLen == 0 {
				// A new run starts at bit s; any run carried in from
				// the previous word ended at its last bit.
				if runLen > bestLen {
					bestStart, bestLen = runStart, runLen
				}
				runStart, runLen = base+s, 0
			}
			if first {
				a.lowFree = base + s
				first = false
			}
			ones := int32(bits.TrailingZeros64(^(x >> s)))
			runLen += ones
			if runLen >= want {
				return runStart, want
			}
			if s+ones == 64 {
				// The run reaches the word's last bit and may continue
				// into the next word.
				break
			}
			x &= ^uint64(0) << (s + ones)
			if runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
			runLen = 0
		}
		if a.freeBits[w]>>63 == 0 {
			// The word's last block is allocated: no run carries over.
			if runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
			runLen = 0
		}
	}
	if runLen > bestLen {
		bestStart, bestLen = runStart, runLen
	}
	return bestStart, bestLen
}

// wordMask returns the bitmap word holding block i and the mask of the
// blocks of [i, end) that word covers, together with the index just
// past them: the step of the word-at-a-time walks in takeRunLocked and
// freeSpanLocked.
func wordMask(i, end int32) (w int32, mask uint64, next int32) {
	lo := i % 64
	n := min(end-i, 64-lo)
	return i / 64, (^uint64(0) >> (64 - n)) << lo, i + n
}

// takeRunLocked marks blocks [start, start+k) allocated as one span,
// a word at a time. Taking a block that is already allocated is
// allocator corruption and panics.
func (a *Arena) takeRunLocked(start, k int32) {
	for i, end := start, start+k; i < end; {
		w, mask, next := wordMask(i, end)
		if held := mask &^ a.freeBits[w]; held != 0 {
			panic(fmt.Sprintf("shm: takeRun of allocated block %d", w*64+int32(bits.TrailingZeros64(held))))
		}
		a.freeBits[w] &^= mask
		i = next
	}
	a.spanLen[start] = k
	a.takenLocked(k)
}

// takenLocked accounts k blocks leaving the free pool.
func (a *Arena) takenLocked(k int32) {
	a.nFree -= k
	a.stats.Allocs += uint64(k)
	if used := a.nBlocks - a.nFree; used > a.stats.HighWater {
		a.stats.HighWater = used
	}
}

// freeSpanLocked returns the span starting at off to the bitmap, a
// word at a time. Freeing a block that is already free panics.
func (a *Arena) freeSpanLocked(off int32) {
	idx := a.blockIndex(off)
	k := a.spanLen[idx]
	if k < 1 {
		panic(fmt.Sprintf("shm: free of unallocated span at offset %d", off))
	}
	for i, end := idx, idx+k; i < end; {
		w, mask, next := wordMask(i, end)
		if free := mask & a.freeBits[w]; free != 0 {
			panic(fmt.Sprintf("shm: double free of block %d", w*64+int32(bits.TrailingZeros64(free))))
		}
		a.freeBits[w] |= mask
		i = next
	}
	if idx < a.lowFree {
		a.lowFree = idx
	}
	a.spanLen[idx] = 0
	a.nFree += k
	a.stats.Frees += uint64(k)
}

// spanBlocksFor returns the blocks one contiguous span needs for n
// payload bytes: the span carries a single 4-byte link word however
// many blocks it covers.
func (a *Arena) spanBlocksFor(n int) int32 {
	if n <= 0 {
		return 1
	}
	return int32((n + 4 + int(a.blockSize) - 1) / int(a.blockSize))
}

// spanChainLocked builds a chain holding payload bytes from free runs:
// one contiguous span in the common case, several spans under
// fragmentation (greedy longest-run). The caller must hold the lock and
// have verified nFree >= BlocksFor(payload) — the fully-fragmented
// worst case — which guarantees success (see the demand invariant in
// AllocPayloads).
func (a *Arena) spanChainLocked(payload int) (head, tail int32) {
	rem := payload
	head, tail = NilOffset, NilOffset
	for {
		want := a.spanBlocksFor(rem)
		start, length := a.bestRunLocked(want)
		if length == 0 {
			panic("shm: spanChainLocked underflow")
		}
		a.takeRunLocked(start, length)
		head, tail = a.appendLocked(head, tail, a.offsetOf(start))
		rem -= int(length)*int(a.blockSize) - 4
		if rem <= 0 {
			return head, tail
		}
	}
}

// appendLocked links the chain element at off after tail, returning
// the chain's new endpoints.
func (a *Arena) appendLocked(head, tail, off int32) (int32, int32) {
	a.setLink(off, NilOffset)
	if head == NilOffset {
		return off, off
	}
	a.setLink(tail, off)
	return head, off
}

// payloadChainLocked builds the chain for one n-byte payload in the
// arena's layout: spans in span mode, otherwise BlocksFor(n) blocks
// popped off the classic free list. The caller must hold the lock and
// have verified nFree >= BlocksFor(n).
func (a *Arena) payloadChainLocked(n int) (head, tail int32) {
	if a.spans {
		return a.spanChainLocked(n)
	}
	k := int32(a.BlocksFor(n))
	head, tail = NilOffset, NilOffset
	for j := int32(0); j < k; j++ {
		off := a.freeHead
		if off == NilOffset {
			// Unreachable: the caller checked nFree.
			panic("shm: payloadChainLocked underflow")
		}
		a.freeHead = a.link(off)
		head, tail = a.appendLocked(head, tail, off)
	}
	a.takenLocked(k)
	return head, tail
}

// lockFree acquires the lock and returns holding it once at least total
// blocks are free — the one wait loop behind every allocation entry
// point. Without wait, exhaustion counts an AllocFail and returns
// ErrOutOfBlocks. With wait, it parks until frees arrive; stop aborts
// the wait (ErrOutOfBlocks) and a nil stop never does. The caller must
// have checked that total fits the region, or the wait never ends.
//
// Waiter accounting: each waiter owns its own registration — it
// increments waiters before sleeping and decrements after waking,
// whether woken or aborted. Wakers never touch the count; they only
// replace-and-close the channel when waiters > 0. This keeps the
// invariant "a sleeping waiter's channel is the current one and will be
// closed by the next free" without any reset/decrement interleavings
// that could strand a later waiter.
func (a *Arena) lockFree(total int32, wait bool, stop <-chan struct{}) error {
	for {
		a.mu.Lock()
		if a.nFree >= total {
			return nil
		}
		if !wait {
			a.stats.AllocFails++
			a.mu.Unlock()
			return ErrOutOfBlocks
		}
		a.stats.AllocBlocks++
		a.waiters++
		ch := a.cond.ch
		a.mu.Unlock()
		aborted := false
		select {
		case <-ch:
			// Frees arrived; retry the whole reservation.
		case <-stop:
			aborted = true
		}
		a.mu.Lock()
		a.waiters--
		a.mu.Unlock()
		if aborted {
			return ErrOutOfBlocks
		}
	}
}

// AllocPayload allocates a chain able to hold n payload bytes, returning
// both endpoints. In span mode the chain is one contiguous span whenever
// a long enough free run exists (several spans under fragmentation); in
// classic mode it is BlocksFor(n) linked blocks, allocated in a single
// free-list transaction. Without wait, exhaustion returns
// ErrOutOfBlocks; with wait, the call blocks until the chain's
// worst-case block demand is free, and closing stop aborts the wait
// (a nil stop never does). It is AllocPayloads for one payload, without
// the result slices.
func (a *Arena) AllocPayload(n int, wait bool, stop <-chan struct{}) (head, tail int32, err error) {
	total, err := a.payloadDemand(n)
	if err != nil {
		return NilOffset, NilOffset, err
	}
	if err := a.lockFree(total, wait, stop); err != nil {
		return NilOffset, NilOffset, err
	}
	head, tail = a.payloadChainLocked(n)
	a.mu.Unlock()
	return head, tail, nil
}

// payloadDemand returns the worst-case block demand of payloads of the
// given lengths, refusing a negative length and a demand the region
// could never meet (which would otherwise wait forever).
func (a *Arena) payloadDemand(ns ...int) (int32, error) {
	total := 0
	for _, n := range ns {
		if n < 0 {
			return 0, fmt.Errorf("shm: AllocPayloads payload of %d bytes", n)
		}
		total += a.BlocksFor(n)
	}
	if total > int(a.nBlocks) {
		return 0, fmt.Errorf("shm: AllocPayloads batch of %d blocks exceeds region of %d: %w",
			total, a.nBlocks, ErrOutOfBlocks)
	}
	return int32(total), nil
}

// AllocPayloads is the batch form of AllocPayload: one chain per payload
// length in ns, all allocated under a single lock acquisition — the
// allocator half of the batched send path, span-aware. Either every
// chain is built or none is.
//
// The block demand used for capacity checks and the wait loop is the
// fully-fragmented worst case, BlocksFor(len): a span of L blocks holds
// L*blockSize-4 >= L*(blockSize-4) payload bytes, so once that demand is
// free the greedy span builder cannot run out.
func (a *Arena) AllocPayloads(ns []int, wait bool, stop <-chan struct{}) (heads, tails []int32, err error) {
	if len(ns) == 0 {
		return nil, nil, nil
	}
	total, err := a.payloadDemand(ns...)
	if err != nil {
		return nil, nil, err
	}
	if err := a.lockFree(total, wait, stop); err != nil {
		return nil, nil, err
	}
	heads = make([]int32, len(ns))
	tails = make([]int32, len(ns))
	for i, n := range ns {
		heads[i], tails[i] = a.payloadChainLocked(n)
	}
	a.mu.Unlock()
	return heads, tails, nil
}

// wakeAndUnlock releases the lock, waking block-pool waiters by
// replace-and-close only; waiters de-register themselves (see
// lockFree), so a waiter aborting on stop can never consume another
// waiter's registration.
func (a *Arena) wakeAndUnlock() {
	if a.waiters > 0 {
		old := a.cond.ch
		a.cond.ch = make(chan struct{})
		a.mu.Unlock()
		close(old)
		return
	}
	a.mu.Unlock()
}

// FreeChain returns a linked chain (as built by AllocPayload(s) or
// message assembly) to the free pool in one lock acquisition. In span
// mode each chain element is a span; its full run of blocks is returned.
// It is FreeChains for a single chain.
func (a *Arena) FreeChain(head int32) {
	a.FreeChains([]int32{head})
}

// FreeChains returns a whole batch of chains to the free pool in a
// single lock acquisition — the release half of the batched payload
// plane, mirroring AllocPayloads on the allocation side. A
// batched receive that consumed k messages (core's unpinAll, the
// selector's view harvest) pays one free-pool transaction here instead
// of k FreeChain calls. NilOffset entries are skipped, so callers can
// pass message heads verbatim.
func (a *Arena) FreeChains(heads []int32) {
	if len(heads) == 0 {
		return
	}
	if a.spans {
		// Collect every chain's element offsets outside the lock (the
		// link words are owned by the caller until the release); the
		// stack buffer covers typical batches without a heap allocation.
		var offsBuf [32]int32
		offs := offsBuf[:0]
		for _, head := range heads {
			if head == NilOffset {
				continue
			}
			for off := head; off != NilOffset; off = a.link(off) {
				a.checkOffset(off)
				offs = append(offs, off)
			}
		}
		if len(offs) == 0 {
			return
		}
		a.mu.Lock()
		for _, off := range offs {
			a.freeSpanLocked(off)
		}
		a.wakeAndUnlock()
		return
	}
	// Classic mode: find each chain's tail and length outside the lock,
	// then splice them all onto the free list under one acquisition.
	type chainEnd struct {
		head, tail int32
		n          int32
	}
	var endsBuf [16]chainEnd
	ends := endsBuf[:0]
	for _, head := range heads {
		if head == NilOffset {
			continue
		}
		a.checkOffset(head)
		n := int32(1)
		tail := head
		for {
			next := a.link(tail)
			if next == NilOffset {
				break
			}
			a.checkOffset(next)
			tail = next
			n++
		}
		ends = append(ends, chainEnd{head: head, tail: tail, n: n})
	}
	if len(ends) == 0 {
		return
	}
	a.mu.Lock()
	for _, c := range ends {
		a.setLink(c.tail, a.freeHead)
		a.freeHead = c.head
		a.nFree += c.n
		a.stats.Frees += uint64(c.n)
	}
	a.wakeAndUnlock()
}

// Next returns the block following off in a chain, or NilOffset.
func (a *Arena) Next(off int32) int32 {
	a.checkOffset(off)
	return a.link(off)
}

// SegPayload returns the payload bytes of the chain element at off: the
// block's payload in classic mode, the whole span's in span mode (one
// 4-byte link word however many blocks the span covers). The returned
// slice aliases the arena; the caller owns the element. This is the
// segment accessor msg.View iterates.
func (a *Arena) SegPayload(off int32) []byte {
	a.checkOffset(off)
	k := int32(1)
	if a.spans {
		k = a.spanLen[a.blockIndex(off)]
		if k < 1 {
			panic(fmt.Sprintf("shm: SegPayload of unallocated span at offset %d", off))
		}
	}
	return a.mem[off+4 : off+k*a.blockSize]
}

// checkOffset panics if off is not a valid block offset. Offset bugs in a
// shared region are memory corruption; failing loudly is the only sane
// policy.
func (a *Arena) checkOffset(off int32) {
	if off < a.blockSize || off >= int32(len(a.mem)) || off%a.blockSize != 0 {
		panic(fmt.Sprintf("shm: invalid block offset %d (block size %d, region %d)", off, a.blockSize, len(a.mem)))
	}
}

// BlocksFor returns the number of blocks needed to hold n payload bytes.
// Zero-length messages still occupy one block so that the message exists
// in the FIFO.
func (a *Arena) BlocksFor(n int) int {
	if n <= 0 {
		return 1
	}
	p := a.PayloadSize()
	return (n + p - 1) / p
}

// WriteChain copies buf into the chain starting at head, returning the
// number of bytes written. The chain's payload capacity must cover buf.
func (a *Arena) WriteChain(head int32, buf []byte) int {
	written := 0
	off := head
	for written < len(buf) {
		if off == NilOffset {
			panic("shm: WriteChain ran out of blocks")
		}
		n := copy(a.SegPayload(off), buf[written:])
		written += n
		off = a.Next(off)
	}
	return written
}

// ReadChain copies length bytes from the chain starting at head into buf,
// returning the number of bytes copied (min of length and len(buf)).
func (a *Arena) ReadChain(head int32, length int, buf []byte) int {
	want := length
	if want > len(buf) {
		want = len(buf)
	}
	read := 0
	off := head
	for read < want {
		if off == NilOffset {
			panic("shm: ReadChain ran out of blocks")
		}
		p := a.SegPayload(off)
		remain := want - read
		if remain < len(p) {
			p = p[:remain]
		}
		read += copy(buf[read:], p)
		off = a.Next(off)
	}
	return read
}

// CheckFreeList verifies free-pool integrity: every free block is a valid
// offset, no block appears twice, and the count matches nFree (in span
// mode, that the bitmap population matches nFree). It is an O(nBlocks)
// diagnostic for tests.
func (a *Arena) CheckFreeList() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spans {
		n := int32(0)
		for i, w := range a.freeBits {
			if i == len(a.freeBits)-1 && a.nBlocks%64 != 0 {
				if w>>(a.nBlocks%64) != 0 {
					return fmt.Errorf("shm: free bitmap marks blocks beyond the region")
				}
			}
			n += int32(bits.OnesCount64(w))
		}
		if n != a.nFree {
			return fmt.Errorf("shm: free bitmap has %d blocks, counter says %d", n, a.nFree)
		}
		return nil
	}
	seen := make(map[int32]bool, a.nFree)
	n := int32(0)
	for off := a.freeHead; off != NilOffset; off = a.link(off) {
		if off < a.blockSize || off >= int32(len(a.mem)) || off%a.blockSize != 0 {
			return fmt.Errorf("shm: free list contains invalid offset %d", off)
		}
		if seen[off] {
			return fmt.Errorf("shm: free list cycle at offset %d", off)
		}
		seen[off] = true
		n++
		if n > a.nBlocks {
			return fmt.Errorf("shm: free list longer than region (%d blocks)", n)
		}
	}
	if n != a.nFree {
		return fmt.Errorf("shm: free list has %d blocks, counter says %d", n, a.nFree)
	}
	return nil
}
