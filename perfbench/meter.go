package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealTicks reads the machine's cumulative CPU steal time, in clock
// ticks, from /proc/stat; ok is false where it is not available.
func stealTicks() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}

// epoch anchors the run clock; now reads the monotonic clock relative
// to it in nanoseconds.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// sampleCap bounds the latency samples one slice keeps. A full buffer
// is halved by keeping every other sample and sampling every second
// delivery from then on, so a slice keeps between sampleCap/2 and
// sampleCap samples spread evenly over its time, whatever the rate.
// The buffer is allocated whole on first use, so recording leaves no
// garbage behind.
const sampleCap = 1 << 14

// samples is a decimating latency buffer.
type samples struct {
	xs     []float64 // µs
	stride int64
	seen   int64
}

func (s *samples) add(us float64) {
	s.seen++
	if s.stride == 0 {
		s.stride = 1
		s.xs = make([]float64, 0, sampleCap)
	}
	if s.seen%s.stride != 0 {
		return
	}
	s.xs = append(s.xs, us)
	if len(s.xs) == sampleCap {
		for i := 0; i < sampleCap/2; i++ {
			s.xs[i] = s.xs[2*i+1]
		}
		s.xs = s.xs[:sampleCap/2]
		s.stride *= 2
	}
}

// slice is one equal-length interval of the timed phase.
type slice struct {
	deliveries int64
	bytes      int64
	lat, cold  samples
}

// meter records the timed phase on the goroutine that sees deliveries:
// per slice, the verified deliveries, their payload bytes and sampled
// latencies. Deliveries outside [start, start+slices*sliceNs) — the
// warm-up and the drain — are not recorded. A meter is owned by one
// goroutine.
//
// A sampler goroutine reads the machine's CPU steal counter at every
// slice boundary. On a virtual machine whose neighbours take CPU time
// away, throughput and latency follow the steal; the metrics are
// taken over the calmer half of the slices, so a burst of steal in part
// of a run does not move them.
type meter struct {
	start, sliceNs int64
	slices         []slice

	steal   []int64 // cumulative steal ticks at each slice boundary
	stealOK bool
	sampled chan struct{}
}

func newMeter(start int64, measure time.Duration, slices int) *meter {
	m := &meter{
		start:   start,
		sliceNs: int64(measure) / int64(slices),
		slices:  make([]slice, slices),
		steal:   make([]int64, slices+1),
		sampled: make(chan struct{}),
	}
	go m.sampleSteal()
	return m
}

func (m *meter) sampleSteal() {
	defer close(m.sampled)
	ok := true
	for i := range m.steal {
		time.Sleep(time.Duration(m.start + int64(i)*m.sliceNs - now()))
		v, vok := stealTicks()
		m.steal[i], ok = v, ok && vok
	}
	m.stealOK = ok
}

// stealShare returns each slice's stolen CPU time as a share of the
// CPU time the machine had in it, once the sampler has read the last
// boundary. ok is false where the counter is not available.
func (m *meter) stealShare() (share []float64, ok bool) {
	<-m.sampled
	if !m.stealOK {
		return nil, false
	}
	cpuTicks := float64(m.sliceNs) / 1e9 * clockTicks * float64(runtime.NumCPU())
	for i := range m.slices {
		share = append(share, float64(m.steal[i+1]-m.steal[i])/cpuTicks)
	}
	return share, true
}

// calm returns the slices whose steal share is at most the median —
// at least half of them, and all of them where steal is not reported.
func (m *meter) calm() []int {
	share, ok := m.stealShare()
	var out []int
	for i := range m.slices {
		if !ok || share[i] <= median(share) {
			out = append(out, i)
		}
	}
	return out
}

func (m *meter) at(t int64) *slice {
	if t < m.start {
		return nil
	}
	i := (t - m.start) / m.sliceNs
	if i >= int64(len(m.slices)) {
		return nil
	}
	return &m.slices[i]
}

// deliver records msgs deliveries of bytes payload bytes completing at
// t, and one latency sample from sentAt to t. cold marks the
// workload's sparse traffic class, whose latencies are also kept apart.
func (m *meter) deliver(t int64, msgs, bytes int, sentAt int64, cold bool) {
	s := m.at(t)
	if s == nil {
		return
	}
	s.deliveries += int64(msgs)
	s.bytes += int64(bytes)
	us := float64(t-sentAt) / 1e3
	s.lat.add(us)
	if cold {
		s.cold.add(us)
	}
}

// rates returns deliveries and MiB per second of each calm slice.
func (m *meter) rates() (msgs, mib []float64) {
	sec := float64(m.sliceNs) / 1e9
	for _, i := range m.calm() {
		msgs = append(msgs, float64(m.slices[i].deliveries)/sec)
		mib = append(mib, float64(m.slices[i].bytes)/sec/(1<<20))
	}
	return msgs, mib
}

// latency summarises one latency class over the calm slices: the
// median and the tail percentile (want, or the highest below it that
// leaves tailBeyond samples beyond), with the sample count and the
// percentile used. When every calm slice holds enough samples for the
// wanted tail on its own, both are medians over the slices, so one
// slice with a stall cannot move them; otherwise (a workload with few,
// long operations) they come from the slices' pooled samples.
type latency struct {
	p50, tail, tailPct float64
	samples            int
	perSlice           bool
	ok                 bool
}

func (m *meter) latency(cold bool, want float64) latency {
	var per [][]float64
	var pooled []float64
	enough := true
	for _, i := range m.calm() {
		xs := m.slices[i].lat.xs
		if cold {
			xs = m.slices[i].cold.xs
		}
		per = append(per, xs)
		pooled = append(pooled, xs...)
		enough = enough && float64(len(xs))*(100-want)/100 >= tailBeyond
	}
	l := latency{samples: len(pooled), perSlice: enough}
	if !enough {
		sort.Float64s(pooled)
		l.tail, l.tailPct, l.ok = tail(pooled, want)
		l.p50 = quantile(pooled, 0.5)
		return l
	}
	var p50s, tails []float64
	for _, xs := range per {
		s := sortedCopy(xs)
		v, _, _ := tail(s, want)
		p50s, tails = append(p50s, quantile(s, 0.5)), append(tails, v)
	}
	l.p50, l.tail, l.tailPct, l.ok = median(p50s), median(tails), want, len(per) > 0
	return l
}
