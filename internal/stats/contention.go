package stats

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Per-shard contention accounting for sharded data structures (the LNVC
// registry in internal/core). The counters live here, next to the rest
// of the measurement toolkit, so the benchmark harness and mpfbench can
// render them alongside throughput figures.

// LockStat is a snapshot of one shard's lock traffic.
type LockStat struct {
	// Acquisitions counts successful lock acquisitions (read and write).
	Acquisitions uint64
	// Contended counts acquisitions whose first attempt found the lock
	// held, i.e. the acquirer had to spin.
	Contended uint64
}

// ContentionRate returns the fraction of acquisitions that contended
// (0 for an idle shard).
func (s LockStat) ContentionRate() float64 {
	if s.Acquisitions == 0 {
		return 0
	}
	return float64(s.Contended) / float64(s.Acquisitions)
}

// cacheLine pads contention cells so that adjacent shards' counters do
// not share a cache line — otherwise the counters themselves would
// recreate the very contention they are measuring.
const cacheLine = 64

type contentionCell struct {
	acquisitions atomic.Uint64
	contended    atomic.Uint64
	_            [cacheLine - 16]byte
}

// Contention is a fixed-size set of per-shard lock counters, safe for
// concurrent use.
type Contention struct {
	cells []contentionCell
}

// NewContention creates counters for n shards (n >= 1).
func NewContention(n int) *Contention {
	if n < 1 {
		n = 1
	}
	return &Contention{cells: make([]contentionCell, n)}
}

// Record notes one lock acquisition on shard i, contended or not.
func (c *Contention) Record(i int, contended bool) {
	cell := &c.cells[i]
	cell.acquisitions.Add(1)
	if contended {
		cell.contended.Add(1)
	}
}

// Snapshot returns the current per-shard counters.
func (c *Contention) Snapshot() []LockStat {
	out := make([]LockStat, len(c.cells))
	for i := range c.cells {
		out[i] = LockStat{
			Acquisitions: c.cells[i].acquisitions.Load(),
			Contended:    c.cells[i].contended.Load(),
		}
	}
	return out
}

// Total sums the per-shard counters.
func (c *Contention) Total() LockStat {
	var t LockStat
	for i := range c.cells {
		t.Acquisitions += c.cells[i].acquisitions.Load()
		t.Contended += c.cells[i].contended.Load()
	}
	return t
}

// RenderLockStats formats per-shard lock statistics as a fixed-width
// table, one row per shard plus a totals row, in the same style as
// Figure.Render.
func RenderLockStats(title string, stats []LockStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s%14s%14s%12s\n", "shard", "acquisitions", "contended", "rate")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 8+14+14+12))
	var total LockStat
	for i, s := range stats {
		total.Acquisitions += s.Acquisitions
		total.Contended += s.Contended
		fmt.Fprintf(&b, "%-8d%14d%14d%12.4f\n", i, s.Acquisitions, s.Contended, s.ContentionRate())
	}
	fmt.Fprintf(&b, "%-8s%14d%14d%12.4f\n", "total", total.Acquisitions, total.Contended, total.ContentionRate())
	return b.String()
}
