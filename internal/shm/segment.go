package shm

// The segment backends. The paper's MPF "maps a region of physical
// memory into the virtual address space of every Unix process in the
// program"; everything above this file (the arena, the descriptor
// tables, the futex rings) addresses that region by *offset* precisely
// so the region can live at a different virtual address in every
// process. A Segment is the region itself, behind one of two backends:
//
//   - heap: an ordinary Go allocation. Portable, the test default, and
//     the only backend available off Linux. Visible to one process.
//   - memfd (segment_linux.go): an anonymous memfd_create file mapped
//     MAP_SHARED. The file descriptor travels to child processes over a
//     unix-domain socket (SendSegment/RecvSegment in handshake*.go) and
//     every process maps the same physical pages — the paper's facility
//     for real.
//
// A Segment hands out three views of its memory: raw byte windows (At),
// offset translation for slices that alias it (OffsetOf — how a
// zero-copy Loan or View payload becomes a ring descriptor another
// process can dereference), and aligned atomic words (Atomic32/
// Atomic64 — the spots the cross-process synchronization protocol
// words live in, including the futex words NotifyWord sleeps on).

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// ErrNoSharedBackend is returned when a cross-process facility (memfd
// segments, fd passing) is requested on a platform that lacks it. The
// heap backend keeps every platform compiling and testing; only Linux
// gets real shared segments.
var ErrNoSharedBackend = errors.New("shm: shared memory segments unsupported on this platform")

// ErrSegmentClosed is returned by operations on a closed (unmapped)
// segment.
var ErrSegmentClosed = errors.New("shm: segment closed")

// SegmentKind names a segment's backend.
type SegmentKind uint8

const (
	// HeapSegment is process-private Go memory: the portable fallback
	// and test default.
	HeapSegment SegmentKind = iota
	// MemfdSegment is a Linux memfd_create file mapped MAP_SHARED,
	// attachable by other processes via its file descriptor.
	MemfdSegment
)

func (k SegmentKind) String() string {
	switch k {
	case HeapSegment:
		return "heap"
	case MemfdSegment:
		return "memfd"
	default:
		return fmt.Sprintf("SegmentKind(%d)", uint8(k))
	}
}

// Segment is one shared-memory region. All cross-process state — the
// descriptor table, the futex rings, the block arena — lives inside it
// and is addressed relative to its base.
type Segment struct {
	mem    []byte
	kind   SegmentKind
	closed bool

	// heapWords anchors the heap backend's allocation; sizing it in
	// uint64 units guarantees 8-byte base alignment for the atomic
	// words carved out of the segment.
	heapWords []uint64

	// osFile is the backing memfd on Linux (nil for heap segments);
	// segment_linux.go owns its lifecycle.
	osFile backingFile
}

// backingFile is the platform half of a segment (the memfd and its
// mapping); the stub backend has none.
type backingFile interface {
	// Fd returns the descriptor to pass to other processes.
	Fd() uintptr
	Close() error
}

// NewSegment creates a heap-backed segment of the given size. It never
// fails for sane sizes and is available on every platform.
func NewSegment(size int64) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("shm: segment of %d bytes", size)
	}
	words := make([]uint64, (size+7)/8)
	return &Segment{
		mem:       unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size),
		kind:      HeapSegment,
		heapWords: words,
	}, nil
}

// Kind reports the segment's backend.
func (s *Segment) Kind() SegmentKind { return s.kind }

// Shared reports whether other processes can attach the segment.
func (s *Segment) Shared() bool { return s.kind == MemfdSegment }

// Size returns the segment length in bytes.
func (s *Segment) Size() int64 { return int64(len(s.mem)) }

// Bytes returns the whole segment. The slice aliases the mapping and
// must not be used after Close.
func (s *Segment) Bytes() []byte { return s.mem }

// At returns the n-byte window starting at off. The slice aliases the
// mapping; out-of-range windows panic (an offset bug against a shared
// region is memory corruption — fail loudly, as the arena does).
func (s *Segment) At(off, n int64) []byte {
	if off < 0 || n < 0 || off+n > int64(len(s.mem)) {
		panic(fmt.Sprintf("shm: segment window [%d,%d) outside region of %d bytes", off, off+n, len(s.mem)))
	}
	return s.mem[off : off+n : off+n]
}

// OffsetOf translates a slice that aliases the segment back into its
// base offset — how a zero-copy payload (an arena span handed out by
// Loan.Bytes or View.Bytes) becomes a descriptor another process can
// resolve against its own mapping. It returns false if b does not
// alias the segment. Empty slices cannot be located.
func (s *Segment) OffsetOf(b []byte) (int64, bool) {
	if len(b) == 0 || len(s.mem) == 0 {
		return 0, false
	}
	base := uintptr(unsafe.Pointer(&s.mem[0]))
	p := uintptr(unsafe.Pointer(&b[0]))
	if p < base || p+uintptr(len(b)) > base+uintptr(len(s.mem)) {
		return 0, false
	}
	return int64(p - base), true
}

// Atomic32 returns the 4-byte word at off for atomic access. The word
// is shared with every process that mapped the segment; off must be
// 4-aligned.
func (s *Segment) Atomic32(off int64) *atomic.Uint32 {
	if off < 0 || off+4 > int64(len(s.mem)) || off%4 != 0 {
		panic(fmt.Sprintf("shm: misaligned or out-of-range atomic32 at %d", off))
	}
	return (*atomic.Uint32)(unsafe.Pointer(&s.mem[off]))
}

// Atomic64 returns the 8-byte word at off for atomic access; off must
// be 8-aligned.
func (s *Segment) Atomic64(off int64) *atomic.Uint64 {
	if off < 0 || off+8 > int64(len(s.mem)) || off%8 != 0 {
		panic(fmt.Sprintf("shm: misaligned or out-of-range atomic64 at %d", off))
	}
	return (*atomic.Uint64)(unsafe.Pointer(&s.mem[off]))
}

// Close unmaps the segment and closes its backing file. Heap segments
// just drop the allocation. Close is idempotent; every slice and word
// previously handed out becomes invalid (memfd views would fault, heap
// views go stale), so callers quiesce all users first — the clean
// unmap the cross-process demo asserts.
func (s *Segment) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.osFile != nil {
		if err := s.unmap(); err != nil {
			return err
		}
		return s.osFile.Close()
	}
	s.mem = nil
	s.heapWords = nil
	return nil
}

// AlignUp rounds off up to the next multiple of 64 — the segment
// layout helper: every protocol structure (table, rings, arena) starts
// on its own cache line so cross-process hot words never share one.
func AlignUp(off int64) int64 { return (off + 63) &^ 63 }

// HugePageBytes is the transparent-huge-page granule the arena aligns
// span regions to when Config.HugePages is set: 2 MiB on both linux
// architectures this package targets.
const HugePageBytes = 2 << 20

// AdviseHugeBytes issues the MADV_HUGEPAGE hint for the huge-page-
// aligned interior of b — the slice-level form Arena uses for regions
// it does not own a Segment handle for (the heap backend). Shrinking
// inward rather than rounding outward keeps the hint off neighbouring
// allocations.
func AdviseHugeBytes(b []byte) (int64, error) {
	if len(b) == 0 || !madviseSupported {
		return 0, nil
	}
	lo := uintptr(unsafe.Pointer(&b[0]))
	hi := lo + uintptr(len(b))
	alo := (lo + HugePageBytes - 1) &^ (HugePageBytes - 1)
	ahi := hi &^ (HugePageBytes - 1)
	if ahi <= alo {
		return 0, nil
	}
	if err := madviseHuge(alo, ahi-alo); err != nil {
		return 0, err
	}
	return int64(ahi - alo), nil
}
