// Command perfbench is the repository's benchmark. One run drives one
// named workload against the public mpf API for a given number of
// seconds, checks every output, prints its metrics by name and unit,
// and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the workload runs once untraced and once traced, followed by short
// traced probes of the other workloads and the layer ladders, and the
// metrics are the per-layer ones. Any failed check makes the command
// exit 1. See README.md for the workloads and metrics.
//
//	go run . --workload fcfs-copy --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/shm"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(xprocChild())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
	// note says how the value was obtained, for the human-readable
	// lines only.
	note string
	// printed marks a metric printed for the reader but left out of
	// the JSON result, so no bound gates it.
	printed bool
}

// loadProcs is the number of runnable goroutines the load is generated
// with: one sender and one receiver.
const loadProcs = 2

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured run in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if runtime.NumCPU() >= loadProcs {
		runtime.GOMAXPROCS(loadProcs)
	}
	// A hung operation fails the run instead of outliving its limit.
	limit := time.Duration(math.Min(3**seconds+60, 170) * float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", w.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	printHost(stdout)
	fmt.Fprintf(stdout, "workload %s, seed %d: %s\n", w.name, *seed, w.why)
	led := &ledger{}
	if w.describe != nil {
		w.describe(stdout, *seed, led)
	}
	var metrics []metric
	measure := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		metrics = tracedRun(stdout, w, *seed, measure, *spansDir, led)
	} else {
		metrics = plainRun(stdout, w, *seed, measure, led)
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			led.check(false, "%s: no value", m.name)
		}
	}
	for _, m := range metrics {
		gate := ""
		if m.printed {
			gate = "(printed only) "
		}
		fmt.Fprintf(stdout, "  %-30s %14.6g %-10s %s%s\n", m.name, m.value, m.unit, gate, m.note)
	}
	fmt.Fprintf(stdout, "fail_ratio %s\n", led.failRatio())
	for _, n := range led.notes {
		fmt.Fprintf(stdout, "FAILED: %s\n", n)
	}
	correct := led.failed.Load() == 0
	if err := printResult(stdout, correct, led, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// printHost prints the facts a reader needs to compare runs.
func printHost(out io.Writer) {
	memfd := "yes"
	if seg, err := shm.NewSharedSegment("perfbench-probe", 4096); err != nil {
		memfd = "no (" + err.Error() + ")"
	} else {
		seg.Close()
	}
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s %s/%s memfd=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, memfd)
}

// warmupFor is the untimed lead-in before a timed phase of length d.
func warmupFor(d time.Duration) time.Duration {
	return min(500*time.Millisecond, d/4)
}

// plainRun runs the workload untraced and returns the end-to-end
// metrics.
func plainRun(out io.Writer, w *workload, seed int64, measure time.Duration, led *ledger) []metric {
	o := w.run(params{seed: seed, warmup: warmupFor(measure), measure: measure,
		slices: sliceCount, setups: w.setups, led: led})
	if o == nil {
		return nil
	}
	printSteal(out, o.m)
	return endToEnd(w, o)
}

// printSteal prints the CPU time the machine lost to its neighbours in
// each slice of the timed phase, and which slices the metrics use.
func printSteal(out io.Writer, m *meter) {
	share, ok := m.stealShare()
	if !ok {
		fmt.Fprintln(out, "cpu steal: not reported; metrics use every slice")
		return
	}
	pct := make([]string, len(share))
	for i, s := range share {
		pct[i] = fmt.Sprintf("%.1f", 100*s)
	}
	fmt.Fprintf(out, "cpu steal per slice (%% of CPU time): %s; metrics use slices %v\n", strings.Join(pct, " "), m.calm())
}

// endToEnd derives the end-to-end metrics from an untraced phase.
// Every workload reports every metric; where a metric names something
// a workload does not have, it reports the nearest measured quantity
// (README.md lists which). The tail latencies are printed but not
// gated: on a shared virtual machine their run-to-run spread exceeds
// any bound the benchmark may fix.
func endToEnd(w *workload, o *outcome) []metric {
	msgs, mib := o.m.rates()
	lat := o.m.latency(false, 99)
	over := func(xs []float64, what string) string {
		q1, _, q3, ok := quartiles(xs)
		if !ok {
			return fmt.Sprintf("over %d %s", len(xs), what)
		}
		return fmt.Sprintf("median of %d %s, quartiles %.6g..%.6g", len(xs), what, q1, q3)
	}
	latNote := latencyNote(lat)
	rate := median(msgs)
	ms := []metric{
		{name: "setup_s", unit: "s", value: median(o.setupS), note: over(o.setupS, "set-ups")},
		{name: "msgs_per_s", unit: "msg/s", value: rate, note: over(msgs, "calm slices")},
		{name: "payload_mb_s", unit: "MiB/s", value: median(mib), note: over(mib, "calm slices")},
		{name: "latency_p50_us", unit: "us", value: nanIf(!lat.ok, lat.p50), note: latNote},
		{name: "latency_p99_us", unit: "us", value: nanIf(!lat.ok, lat.tail), note: latNote, printed: true},
	}
	cold := metric{name: "cold_latency_p99_us", unit: "us", value: ms[4].value, note: "single traffic class: latency_p99_us", printed: true}
	if w.name == "views-burst" {
		c := o.m.latency(true, 99)
		cold.value = nanIf(!c.ok, c.tail)
		cold.note = "cold circuit, " + latencyNote(c)
	}
	solve := metric{name: "solve_s", unit: "s", value: 1024 / rate, note: "time to deliver 1024 messages at msgs_per_s"}
	if w.name == "gauss-solve" {
		solve.value, solve.note = lat.p50/1e6, fmt.Sprintf("median of %d verified solves", lat.samples)
	}
	return append(ms, cold, solve,
		metric{name: "peak_rss_mb", unit: "MiB", value: peakRSSMiB(), note: "this process, getrusage"})
}

// latencyNote says how a latency summary was formed.
func latencyNote(l latency) string {
	if l.perSlice {
		return fmt.Sprintf("median over calm slices, %d samples", l.samples)
	}
	return fmt.Sprintf("calm slices pooled, %d samples, tail at p%.4g", l.samples, l.tailPct)
}

func nanIf(bad bool, v float64) float64 {
	if bad {
		return math.NaN()
	}
	return v
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(out io.Writer, correct bool, led *ledger, metrics []metric) error {
	r := result{Correct: correct, Attempted: led.attempted.Load(), Failed: led.failed.Load(),
		Metrics: map[string]jsonMetric{}}
	if r.Attempted == 0 {
		r.Attempted, r.Failed, r.Correct = 1, 1, false
	}
	for _, m := range metrics {
		if m.printed {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// sortedNames returns m's keys in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
