package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The traced run records spans from the benchmark's own code around
// its calls into the facility — never inside the program. A span has
// a name, a start and end on the run clock, the item (message, batch,
// round trip or solve) it belongs to, and the name of its parent span
// within that item; every item has one root span with no parent. Only
// every n-th item is traced, n chosen so a run keeps a bounded number
// of spans in memory; they are written out when the run ends.

type span struct {
	name, parent string
	item         uint64
	start, end   int64
}

// spanLog is one goroutine's spans; goroutines never share a log.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(name, parent string, item uint64, start, end int64) {
	l.spans = append(l.spans, span{name: name, parent: parent, item: item, start: start, end: end})
}

// tracer hands out per-goroutine logs. A nil tracer traces nothing.
type tracer struct {
	every uint64
	logs  []*spanLog
}

// maxTracedItems bounds the items one traced phase records.
const maxTracedItems = 50000

// newTracer traces every n-th item, with n chosen so a phase of
// expected items traces at most maxTracedItems of them. n is odd, so
// the traced items do not fall in step with a workload's alternation
// or power-of-two cycles.
func newTracer(expected int64) *tracer {
	return &tracer{every: uint64(expected/maxTracedItems+1) | 1}
}

// log returns a fresh log for one goroutine; call it before starting
// the goroutine.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{}
	t.logs = append(t.logs, l)
	return l
}

// traced reports whether item's spans are recorded.
func (t *tracer) traced(item uint64) bool { return t != nil && item%t.every == 0 }

// spanStat aggregates the spans of one name.
type spanStat struct {
	count       int
	durNs, self float64 // sums, ns
}

func (s spanStat) meanNs() float64 {
	if s.count == 0 {
		return 0
	}
	return s.durNs / float64(s.count)
}

func (s spanStat) meanSelfNs() float64 {
	if s.count == 0 {
		return 0
	}
	return s.self / float64(s.count)
}

// all returns every recorded span, grouped by item and ordered by
// start within an item.
func (t *tracer) all() []span {
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].item != out[j].item {
			return out[i].item < out[j].item
		}
		return out[i].start < out[j].start
	})
	return out
}

// summarize returns per-name statistics. A span's self time is its
// duration minus the part of it its children cover.
func (t *tracer) summarize() map[string]spanStat {
	stats := map[string]spanStat{}
	spans := t.all()
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].item == spans[lo].item {
			hi++
		}
		item := spans[lo:hi]
		for _, s := range item {
			st := stats[s.name]
			st.count++
			st.durNs += float64(s.end - s.start)
			st.self += float64(s.end-s.start) - covered(s, item)
			stats[s.name] = st
		}
		lo = hi
	}
	return stats
}

// covered returns how much of parent's interval its children in item
// cover; item is ordered by start.
func covered(parent span, item []span) float64 {
	var total, reach int64
	reach = parent.start
	for _, c := range item {
		if c.parent != parent.name {
			continue
		}
		s, e := max(c.start, reach), min(c.end, parent.end)
		if e > s {
			total += e - s
			reach = e
		}
	}
	return float64(total)
}

// write stores the spans as CSV in dir, one file per run.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "item,name,parent,start_ns,end_ns")
	for _, s := range t.all() {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d\n", s.item, s.name, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
