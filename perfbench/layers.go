package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// probeLength is the timed length of the short traced run of another
// workload that supplies the per-layer metrics of calls the traced
// workload does not make.
const probeLength = 300 * time.Millisecond

// evidence is what one workload's traced run left for the per-layer
// metrics: counters and gauges from an untraced phase, and span
// statistics from a traced one.
type evidence struct {
	o     *outcome
	spans map[string]spanStat
	// source names where the evidence came from.
	source string
}

// ladders holds the lower layers' standalone timings.
type ladders struct {
	msg                          msgLadder
	buildBatchNs, releaseBatchNs float64
	allocNs, freeNs              float64
	ringNs, notifyUs             float64
	tasNs, rwNs, gaussSeqS       float64
}

// layerDef is one per-layer metric and where it is measured: on the
// traced workload itself (own), by a ladder, or on the traced run of
// one of its home workloads — any other workload takes it from a
// short traced probe of homes[0].
type layerDef struct {
	name, unit string
	ladder     bool
	homes      []string
	value      func(e evidence, l *ladders) float64
}

func own(name, unit string, f func(o *outcome) float64) layerDef {
	return layerDef{name: name, unit: unit, value: func(e evidence, _ *ladders) float64 { return f(e.o) }}
}

func home(name, unit string, homes []string, f func(e evidence, l *ladders) float64) layerDef {
	return layerDef{name: name, unit: unit, homes: homes, value: f}
}

func lad(name, unit string, f func(l *ladders) float64) layerDef {
	return layerDef{name: name, unit: unit, ladder: true, value: func(_ evidence, l *ladders) float64 { return f(l) }}
}

// spanMean is the mean duration of the named spans in unit ns.
func spanMean(name string, unit float64) func(e evidence, _ *ladders) float64 {
	return func(e evidence, _ *ladders) float64 { return e.spans[name].meanNs() / unit }
}

func layerVal(name string) func(e evidence, _ *ladders) float64 {
	return func(e evidence, _ *ladders) float64 { return e.o.layer[name] }
}

func counter(f func(o *outcome) float64) func(e evidence, _ *ladders) float64 {
	return func(e evidence, _ *ladders) float64 { return f(e.o) }
}

// perMsg divides by the phase's verified deliveries.
func perMsg(f func(o *outcome) float64) func(o *outcome) float64 {
	return func(o *outcome) float64 { return quotient(f(o), float64(o.delivered)) }
}

func quotient[T uint64 | float64](num, den T) float64 {
	return ratio{num: float64(num), den: float64(den)}.value()
}

var (
	fcfsHome  = []string{"fcfs-copy"}
	viewsHome = []string{"views-burst"}
	xprocHome = []string{"xproc-bridge"}
	gaussHome = []string{"gauss-solve"}
)

// sendSelf and receiveSelf are the facade spans minus what the msg
// ladder says the message layer costs for the same sizes.
func sendSelf(e evidence, l *ladders) float64 { return e.spans["mpf.Send"].meanNs() - l.msg.buildNs }
func receiveSelf(e evidence, l *ladders) float64 {
	return e.spans["mpf.Receive"].meanNs() - l.msg.extractNs - l.msg.releaseNs
}

var layerDefs = []layerDef{
	home("mpf.send_ns", "ns", fcfsHome, spanMean("mpf.Send", 1)),
	home("mpf.receive_ns", "ns", fcfsHome, spanMean("mpf.Receive", 1)),
	home("mpf.loanbatch_ns", "ns", viewsHome, spanMean("mpf.LoanBatch", 1)),
	home("mpf.commitall_ns", "ns", viewsHome, spanMean("mpf.CommitAll", 1)),
	home("mpf.waitviews_ns", "ns", viewsHome, spanMean("mpf.WaitViews", 1)),
	home("mpf.releaseviews_ns", "ns", viewsHome, spanMean("mpf.ReleaseViews", 1)),
	home("mpf.views_per_wait", "views", viewsHome, layerVal("mpf.views_per_wait")),
	home("mpf.bridge_down_us", "us", xprocHome, spanMean("mpf.BridgeDown", 1e3)),
	home("mpf.bridge_up_us", "us", xprocHome, spanMean("mpf.BridgeUp", 1e3)),
	own("mpf.heap_bytes_per_msg", "B/msg", perMsg(func(o *outcome) float64 { return float64(o.heapBytes) })),
	home("core.send_self_ns", "ns", fcfsHome, sendSelf),
	home("core.receive_self_ns", "ns", fcfsHome, receiveSelf),
	home("core.receive_wait_ratio", "ratio", []string{"fcfs-copy", "gauss-solve"}, counter(func(o *outcome) float64 {
		return quotient(o.stats.ReceiveWaits, o.stats.Receives)
	})),
	own("core.payload_copies_per_msg", "copies/msg", perMsg(func(o *outcome) float64 {
		return float64(o.stats.PayloadCopiesIn + o.stats.PayloadCopiesOut)
	})),
	own("core.registry_contended_ratio", "ratio", func(o *outcome) float64 {
		return quotient(o.stats.RegistryContended, o.stats.RegistryAcquisitions)
	}),
	home("core.mux_spurious_per_wakeup", "ratio", viewsHome, counter(func(o *outcome) float64 {
		return quotient(o.stats.MuxSpurious, o.stats.MuxWakeups)
	})),
	home("core.harvest_cap_hits_per_wait", "hits/wait", viewsHome, counter(func(o *outcome) float64 {
		return quotient(float64(o.stats.HarvestCapHits), o.layer["views.waits"])
	})),
	home("core.harvest_auto_budget", "msgs", viewsHome, counter(func(o *outcome) float64 {
		return float64(o.stats.HarvestAutoBudget)
	})),
	home("core.credit_stalls_per_msg", "stalls/msg", viewsHome, counter(perMsg(func(o *outcome) float64 {
		return float64(o.stats.CreditStalls)
	}))),
	lad("msg.build_ns", "ns", func(l *ladders) float64 { return l.msg.buildNs }),
	lad("msg.extract_ns", "ns", func(l *ladders) float64 { return l.msg.extractNs }),
	lad("msg.release_ns", "ns", func(l *ladders) float64 { return l.msg.releaseNs }),
	lad("msg.copy_ns_per_kib", "ns/KiB", func(l *ladders) float64 { return l.msg.copyNsPerKiB }),
	lad("msg.build_loan_batch_ns", "ns", func(l *ladders) float64 { return l.buildBatchNs }),
	lad("msg.release_batch_ns", "ns", func(l *ladders) float64 { return l.releaseBatchNs }),
	own("shm.arena_locks_per_msg", "locks/msg", perMsg(func(o *outcome) float64 { return float64(o.arenaLocks) })),
	own("shm.arena_contended_ratio", "ratio", func(o *outcome) float64 { return quotient(o.arenaContended, o.arenaLocks) }),
	lad("shm.alloc_payload_ns", "ns", func(l *ladders) float64 { return l.allocNs }),
	lad("shm.free_chain_ns", "ns", func(l *ladders) float64 { return l.freeNs }),
	lad("shm.xring_push_pop_ns", "ns", func(l *ladders) float64 { return l.ringNs }),
	lad("shm.notify_wake_us", "us", func(l *ladders) float64 { return l.notifyUs }),
	home("shm.ring_polls_per_msg", "polls/msg", xprocHome, layerVal("shm.ring_polls_per_msg")),
	home("shm.futex_sleeps_per_msg", "sleeps/msg", xprocHome, layerVal("shm.futex_sleeps_per_msg")),
	home("shm.futex_wakes_per_msg", "wakes/msg", xprocHome, layerVal("shm.futex_wakes_per_msg")),
	lad("spinlock.tas_ns", "ns", func(l *ladders) float64 { return l.tasNs }),
	lad("spinlock.rw_read_ns", "ns", func(l *ladders) float64 { return l.rwNs }),
	home("proc.spawn_attach_ms", "ms", xprocHome, layerVal("proc.spawn_attach_ms")),
	lad("apps.gauss_seq_s", "s", func(l *ladders) float64 { return l.gaussSeqS }),
	home("apps.gauss_msgs_per_solve", "msgs/solve", gaussHome, layerVal("apps.gauss_msgs_per_solve")),
	own("trace.overhead_ratio", "ratio", func(o *outcome) float64 { return o.layer["trace.overhead_ratio"] }),
}

// probed reports whether a traced run of workload w needs a probe of
// other: some metric has other as its first home and w is no home.
func probed(other, w string) bool {
	for _, d := range layerDefs {
		if len(d.homes) > 0 && d.homes[0] == other && !slices.Contains(d.homes, w) {
			return true
		}
	}
	return false
}

// tracedRun runs the workload untraced and then traced for half the
// measured time each, probes the workloads that home the metrics this
// one cannot measure, runs the ladders, prints the span and layer
// findings and returns the per-layer metrics. Counters come from the
// untraced phase, span timings from the traced one.
func tracedRun(out io.Writer, w *workload, seed int64, measure time.Duration, spansDir string, led *ledger) []metric {
	half := measure / 2
	p := params{seed: seed, warmup: warmupFor(half), measure: half, slices: sliceCount, setups: 1, led: led}
	plain := w.run(p)
	if plain == nil {
		return nil
	}
	plainRates, _ := plain.m.rates()
	rate := median(plainRates)
	p.tr = newTracer(plain.items)
	traced := w.run(p)
	if traced == nil {
		return nil
	}
	tracedRates, _ := traced.m.rates()
	overhead := ratio{num: rate - median(tracedRates), den: rate, base: "(untraced-traced)/untraced msg/s"}
	plain.layer["trace.overhead_ratio"] = overhead.value()
	fmt.Fprintf(out, "tracing overhead on %s: %s; every %d-th item traced\n", w.name, overhead, p.tr.every)
	from := map[string]evidence{w.name: {o: plain, spans: p.tr.summarize(), source: "traced run"}}
	printSpans(out, w.name, from[w.name].spans)
	if spansDir != "" {
		path, err := p.tr.write(spansDir, fmt.Sprintf("%s-seed%d", w.name, seed))
		led.op("write spans", err)
		fmt.Fprintf(out, "spans written to %s\n", path)
	}

	for _, other := range workloads {
		if other == w || !probed(other.name, w.name) {
			continue
		}
		// A probe's item rate is not known in advance; a million a
		// second bounds every workload's.
		tr := newTracer(int64(1e6 * (probeLength + probeLength/3).Seconds()))
		o := other.run(params{seed: seed, warmup: probeLength / 3, measure: probeLength, slices: 1, setups: 1, tr: tr, led: led})
		if o == nil {
			return nil
		}
		from[other.name] = evidence{o: o, spans: tr.summarize(), source: "probe of " + other.name}
	}
	l, err := runLadders(seed)
	led.op("ladders", err)
	if err != nil {
		return nil
	}

	var ms []metric
	for _, d := range layerDefs {
		e, source := from[w.name], "traced run"
		if d.ladder {
			source = "ladder"
		} else if len(d.homes) > 0 && !slices.Contains(d.homes, w.name) {
			e = from[d.homes[0]]
			source = e.source
		}
		ms = append(ms, metric{name: d.name, unit: d.unit, value: d.value(e, l), note: source})
	}
	fcfs := from["fcfs-copy"]
	addsUp(out, "mpf.send_ns", fcfs.spans["mpf.Send"].meanNs(), l.msg.buildNs+l.tasNs)
	addsUp(out, "mpf.receive_ns", fcfs.spans["mpf.Receive"].meanNs(), l.msg.extractNs+l.msg.releaseNs+l.tasNs)
	return ms
}

// addsUp prints whether a facade span is explained by the layers below
// it: the msg ladder's cost for the same sizes (which includes the shm
// allocator) plus one uncontended spin-lock hold. The layers do not
// add up when they explain less than half of the span, or more than
// all of it.
func addsUp(out io.Writer, name string, facadeNs, explainedNs float64) {
	residual := facadeNs - explainedNs
	share := ratio{num: residual, den: facadeNs, base: "residual/" + name}
	verdict := "layers add up"
	if share.value() > 0.5 || residual < 0 {
		verdict = "layers do not add up"
	}
	fmt.Fprintf(out, "%s: %s %.0f ns, msg+shm+spinlock explain %.0f ns, residual %.0f ns = %s\n",
		verdict, name, facadeNs, explainedNs, residual, share)
}

// printSpans prints each span name's count, mean duration and mean
// self time.
func printSpans(out io.Writer, workload string, spans map[string]spanStat) {
	for _, name := range sortedNames(spans) {
		s := spans[name]
		fmt.Fprintf(out, "span %s %-18s n=%-7d mean %10.0f ns  self %10.0f ns\n",
			workload, name, s.count, s.meanNs(), s.meanSelfNs())
	}
}

// runLadders runs every ladder on the inputs of the workload each one
// replays, generated from seed.
func runLadders(seed int64) (*ladders, error) {
	l := &ladders{}
	var err error
	fcfs := fcfsSizes(seed)
	if l.msg, err = ladderMsg(fcfs, 64); err != nil {
		return nil, err
	}
	if l.buildBatchNs, l.releaseBatchNs, err = ladderBatch(viewsGen(seed)); err != nil {
		return nil, err
	}
	if l.allocNs, l.freeNs, err = ladderAlloc(fcfs, 64); err != nil {
		return nil, err
	}
	if l.ringNs, err = ladderRing(100000); err != nil {
		return nil, err
	}
	if l.notifyUs, err = ladderNotify(2000); err != nil {
		return nil, err
	}
	l.tasNs, l.rwNs = ladderSpin(1000000)
	if l.gaussSeqS, err = ladderGaussSeq(gaussGen(seed), 4); err != nil {
		return nil, err
	}
	return l, nil
}
