package shm

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// refSpans is the reference span allocator: the bit-at-a-time run
// finder, take and free the arena used before its word-at-a-time
// bitmap walks, kept over a bitmap of its own. FuzzSpanAllocator runs
// it in lockstep with a real span-mode Arena and requires the same
// runs, the same bitmap and the same lowFree bound after every step.
type refSpans struct {
	freeBits []uint64
	spanLen  []int32
	nBlocks  int32
	nFree    int32
	lowFree  int32
}

func newRefSpans(nBlocks int) *refSpans {
	r := &refSpans{
		freeBits: make([]uint64, (nBlocks+63)/64),
		spanLen:  make([]int32, nBlocks),
		nBlocks:  int32(nBlocks),
		nFree:    int32(nBlocks),
	}
	for i := 0; i < nBlocks; i++ {
		r.freeBits[i/64] |= 1 << (i % 64)
	}
	return r
}

func (r *refSpans) bestRun(want int32) (start, length int32) {
	var bestStart, bestLen, runStart, runLen int32
	first := true
	for i := r.lowFree &^ 63; i < r.nBlocks; {
		w := r.freeBits[i/64]
		if w == 0 && i%64 == 0 {
			if runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
			runLen = 0
			i += 64
			continue
		}
		if w&(1<<(i%64)) != 0 {
			if first {
				r.lowFree = i
				first = false
			}
			if runLen == 0 {
				runStart = i
			}
			runLen++
			if runLen >= want {
				return runStart, runLen
			}
		} else {
			if runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
			runLen = 0
		}
		i++
	}
	if runLen > bestLen {
		bestStart, bestLen = runStart, runLen
	}
	return bestStart, bestLen
}

func (r *refSpans) take(start, k int32) {
	for i := start; i < start+k; i++ {
		if r.freeBits[i/64]&(1<<(i%64)) == 0 {
			panic(fmt.Sprintf("ref: take of allocated block %d", i))
		}
		r.freeBits[i/64] &^= 1 << (i % 64)
	}
	r.spanLen[start] = k
	r.nFree -= k
}

func (r *refSpans) free(idx int32) {
	if idx < r.lowFree {
		r.lowFree = idx
	}
	k := r.spanLen[idx]
	for i := idx; i < idx+k; i++ {
		if r.freeBits[i/64]&(1<<(i%64)) != 0 {
			panic(fmt.Sprintf("ref: double free of block %d", i))
		}
		r.freeBits[i/64] |= 1 << (i % 64)
	}
	r.spanLen[idx] = 0
	r.nFree += k
}

// chain lays out one payload exactly as spanChainLocked specifies —
// greedy first-fit, else longest run — and returns the chosen runs'
// starting block indices in chain order.
func (r *refSpans) chain(payload int, blockSize int) []int32 {
	var starts []int32
	for rem := payload; ; {
		want := int32(1)
		if rem > 0 {
			want = int32((rem + 4 + blockSize - 1) / blockSize)
		}
		start, length := r.bestRun(want)
		if length == 0 {
			panic("ref: chain underflow")
		}
		length = min(length, want)
		r.take(start, length)
		starts = append(starts, start)
		rem -= int(length)*blockSize - 4
		if rem <= 0 {
			return starts
		}
	}
}

// chainStarts walks a real chain and returns its elements' block
// indices.
func chainStarts(a *Arena, head int32) []int32 {
	var starts []int32
	for off := head; off != NilOffset; off = a.Next(off) {
		starts = append(starts, a.blockIndex(off))
	}
	return starts
}

// FuzzSpanAllocator drives random AllocPayload, AllocPayloads,
// FreeChain and FreeChains sequences (payloads 0–16 KiB, region sizes
// that are not a multiple of 64 blocks) through a span-mode Arena and
// the bit-at-a-time reference together. After every step the arena
// must have chosen the same runs, hold the same bitmap and the same
// lowFree bound, agree on exhaustion, and pass CheckFreeList.
//
// The first two input bytes pick the geometry; each later op takes one
// byte (low 2 bits select the op) plus its arguments.
func FuzzSpanAllocator(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x10, 0, 0, 0x40, 0, 2, 0, 0, 0xff, 0xff, 2, 1})
	f.Add([]byte{1, 7, 1, 3, 0x01, 0x00, 0x20, 0x00, 0x7f, 0xff, 3, 0x0f, 0, 8, 0, 9, 0, 2, 0})
	f.Add([]byte{2, 200, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 2, 1, 0, 0x30, 0, 2, 0, 0, 0x7f, 0xff})
	f.Add([]byte{3, 90, 1, 2, 0, 5, 0, 6, 1, 2, 0, 7, 0, 8, 3, 0x55, 0, 0x20, 0, 2, 2, 0, 0x40, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		blockSize := []int{16, 64}[script[0]&1]
		nBlocks := 65 + int(script[0]>>1)*7 + int(script[1])*5
		if nBlocks%64 == 0 {
			nBlocks++
		}
		a, err := New(Config{BlockSize: blockSize, NumBlocks: nBlocks, Spans: true})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSpans(nBlocks)
		var held []int32 // heads of live chains
		pos := 2
		next := func() int {
			if pos >= len(script) {
				return 0
			}
			pos++
			return int(script[pos-1])
		}
		size := func() int { return (next()<<8 | next()) % (16<<10 + 1) }
		// alloc allocates ns through AllocPayloads, or through
		// AllocPayload when single is set and ns holds one payload.
		alloc := func(ns []int, single bool) {
			demand := 0
			for _, n := range ns {
				demand += a.BlocksFor(n)
			}
			var heads []int32
			var err error
			if single {
				var head int32
				head, _, err = a.AllocPayload(ns[0], false, nil)
				heads = []int32{head}
			} else {
				heads, _, err = a.AllocPayloads(ns, false, nil)
			}
			if int32(demand) > ref.nFree {
				if err == nil {
					t.Fatalf("payloads %v of %d blocks allocated with %d free", ns, demand, ref.nFree)
				}
				return
			}
			if err != nil {
				t.Fatalf("payloads %v of %d blocks failed with %d free: %v", ns, demand, ref.nFree, err)
			}
			for i, n := range ns {
				want := ref.chain(n, blockSize)
				if got := chainStarts(a, heads[i]); !slices.Equal(got, want) {
					t.Fatalf("payload of %d bytes laid out in runs at %v, reference %v", n, got, want)
				}
				for _, s := range want {
					if got := a.spanLen[s]; got != ref.spanLen[s] {
						t.Fatalf("run at block %d is %d blocks long, reference %d", s, got, ref.spanLen[s])
					}
				}
			}
			held = append(held, heads...)
		}
		free := func(k int) {
			if len(held) == 0 {
				return
			}
			k %= len(held)
			head := held[k]
			held = slices.Delete(held, k, k+1)
			for _, s := range chainStarts(a, head) {
				ref.free(s)
			}
			a.FreeChain(head)
		}
		for step := 0; pos < len(script); step++ {
			switch next() & 3 {
			case 0:
				alloc([]int{size()}, next()&1 == 0)
			case 1:
				ns := make([]int, 1+next()%3)
				for i := range ns {
					ns[i] = size()
				}
				alloc(ns, false)
			case 2:
				free(next())
			case 3:
				k := 1 + next()%3
				var heads []int32
				for i := 0; i < k && len(held) > 0; i++ {
					j := next() % len(held)
					heads = append(heads, held[j])
					for _, s := range chainStarts(a, held[j]) {
						ref.free(s)
					}
					held = slices.Delete(held, j, j+1)
				}
				a.FreeChains(append(heads, NilOffset))
			}
			if !slices.Equal(a.freeBits, ref.freeBits) {
				t.Fatalf("step %d: bitmap diverged from the reference", step)
			}
			if a.lowFree != ref.lowFree {
				t.Fatalf("step %d: lowFree %d, reference %d", step, a.lowFree, ref.lowFree)
			}
			if got := a.FreeBlocks(); int32(got) != ref.nFree {
				t.Fatalf("step %d: %d blocks free, reference %d", step, got, ref.nFree)
			}
			if err := a.CheckFreeList(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		a.FreeChains(held)
		if free := a.FreeBlocks(); free != nBlocks {
			t.Fatalf("%d of %d blocks free after releasing every chain", free, nBlocks)
		}
	})
}

// TestSpanRunFinderMatchesReference checks the word-at-a-time run
// finder against the reference on bitmaps built to stress word
// boundaries: runs that end on bit 63, start on bit 0, span whole
// words, and stop short of a region that is not a multiple of 64.
func TestSpanRunFinderMatchesReference(t *testing.T) {
	for _, nBlocks := range []int{1, 63, 65, 130, 200, 321} {
		for seed := uint64(1); seed <= 64; seed++ {
			a, err := New(Config{BlockSize: 16, NumBlocks: nBlocks, Spans: true})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefSpans(nBlocks)
			// A deterministic pattern of allocated blocks: xorshift bits
			// thinned so long runs survive alongside short ones.
			x := seed * 0x9e3779b97f4a7c15
			for i := 0; i < nBlocks; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				if x%5 == 0 || (seed%4 == 0 && i%64 == 63) {
					a.mu.Lock()
					a.takeRunLocked(int32(i), 1)
					a.mu.Unlock()
					ref.take(int32(i), 1)
				}
			}
			for _, want := range []int32{1, 2, 3, 7, 63, 64, 65, 129, 400} {
				a.mu.Lock()
				gs, gl := a.bestRunLocked(want)
				a.mu.Unlock()
				rs, rl := ref.bestRun(want)
				if gs != rs || gl != rl || a.lowFree != ref.lowFree {
					t.Fatalf("nBlocks %d seed %d want %d: run (%d,%d) lowFree %d, reference (%d,%d) lowFree %d",
						nBlocks, seed, want, gs, gl, a.lowFree, rs, rl, ref.lowFree)
				}
			}
		}
	}
}

func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", substr)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q, want one mentioning %q", msg, substr)
		}
	}()
	fn()
}

// TestSpanDoubleFreePanics checks that span mode refuses to free a span
// twice: through the API (the span's length record is gone) and
// through the bitmap's word mask (a length record that overlaps blocks
// already free).
func TestSpanDoubleFreePanics(t *testing.T) {
	a := spanArena(t, 16, 130)
	head, _, err := a.AllocPayload(100, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The chain's link word survives its free, so a stale head still
	// names the span.
	a.FreeChain(head)
	mustPanic(t, "free of unallocated span", func() { a.FreeChain(head) })

	b := spanArena(t, 16, 130)
	// A one-block span at block 62 whose length record claims three
	// blocks: blocks 63 and 64 (across the word boundary) are free, so
	// the mask check must catch the first of them.
	b.mu.Lock()
	b.takeRunLocked(62, 1)
	b.spanLen[62] = 3
	b.mu.Unlock()
	mustPanic(t, "double free of block 63", func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.freeSpanLocked(b.offsetOf(62))
	})
}

// TestSpanTakeOfAllocatedPanics checks that taking a run that overlaps
// an allocated block panics and names the block, in the first word and
// across a word boundary.
func TestSpanTakeOfAllocatedPanics(t *testing.T) {
	for _, c := range []struct {
		start, k int32
		block    string
	}{{60, 20, "block 70"}, {71, 1, "block 71"}, {0, 130, "block 70"}} {
		// A take that panics may have cleared the words before the
		// one it stopped in, so every case gets a fresh arena.
		a := spanArena(t, 16, 200)
		a.mu.Lock()
		a.takeRunLocked(70, 2)
		a.mu.Unlock()
		mustPanic(t, "takeRun of allocated "+c.block, func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			a.takeRunLocked(c.start, c.k)
		})
	}
}
