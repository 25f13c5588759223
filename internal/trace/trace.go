// Package trace provides ready-made core.Tracer implementations: an
// in-memory collector for tests and a text formatter for debugging
// parallel message-passing programs, in the spirit of the instrumentation
// the paper's authors used to attribute costs ("Detailed measurements
// show that, for large messages, ... message copying costs dominate").
package trace

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
)

// Collector records every event in memory. Safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	events []core.Event
	max    int
}

// NewCollector creates a collector retaining at most max events
// (0 means unlimited).
func NewCollector(max int) *Collector {
	return &Collector{max: max}
}

// Trace implements core.Tracer.
func (c *Collector) Trace(ev core.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && len(c.events) >= c.max {
		return
	}
	c.events = append(c.events, ev)
}

// Len returns the number of recorded events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Reset discards recorded events.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = c.events[:0]
}

// CountByOp tallies events per primitive.
func (c *Collector) CountByOp() map[core.Op]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[core.Op]int)
	for _, ev := range c.events {
		m[ev.Op]++
	}
	return m
}

// BytesByOp sums payload bytes per primitive (sends and receives).
func (c *Collector) BytesByOp() map[core.Op]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[core.Op]int)
	for _, ev := range c.events {
		if ev.Err == nil {
			m[ev.Op] += ev.Bytes
		}
	}
	return m
}

// Errors returns the events that carried a non-nil error.
func (c *Collector) Errors() []core.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []core.Event
	for _, ev := range c.events {
		if ev.Err != nil {
			out = append(out, ev)
		}
	}
	return out
}

// Writer formats each event as one text line on an io.Writer. Safe for
// concurrent use; write errors are counted, not returned (Trace has no
// error channel).
type Writer struct {
	mu        sync.Mutex
	w         io.Writer
	failures  int
	NameWidth int // pad LNVC names; 0 disables
}

// NewWriter creates a text tracer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Trace implements core.Tracer.
func (t *Writer) Trace(ev core.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var err error
	switch {
	case ev.Err != nil:
		_, err = fmt.Fprintf(t.w, "p%-3d %-16s lnvc=%-3d ERR %v\n", ev.PID, ev.Op, ev.LNVC, ev.Err)
	case ev.Name != "":
		_, err = fmt.Fprintf(t.w, "p%-3d %-16s lnvc=%-3d name=%q\n", ev.PID, ev.Op, ev.LNVC, ev.Name)
	case ev.Op == core.OpSend || ev.Op == core.OpReceive:
		_, err = fmt.Fprintf(t.w, "p%-3d %-16s lnvc=%-3d %d bytes\n", ev.PID, ev.Op, ev.LNVC, ev.Bytes)
	default:
		_, err = fmt.Fprintf(t.w, "p%-3d %-16s lnvc=%-3d\n", ev.PID, ev.Op, ev.LNVC)
	}
	if err != nil {
		t.failures++
	}
}

// Failures reports how many writes failed.
func (t *Writer) Failures() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failures
}

// Multi fans one event stream out to several tracers.
func Multi(ts ...core.Tracer) core.Tracer { return multi(ts) }

type multi []core.Tracer

func (m multi) Trace(ev core.Event) {
	for _, t := range m {
		t.Trace(ev)
	}
}
