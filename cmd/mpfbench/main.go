// Command mpfbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	mpfbench [-fig N] [-mode simulated|native|both] [-quick]
//	mpfbench -contention [-quick]
//	mpfbench -select [-quick]
//	mpfbench -copies [-xproc] [-quick]
//	mpfbench -loanbatch [-quick]
//	mpfbench -credit [-quick]
//	mpfbench -tuning [-quick]
//	mpfbench -crash [-quick]
//	mpfbench -json BENCH.json [-quick]
//	mpfbench -compare old.json new.json [-tolerance 0.25]
//	mpfbench -ablate schemes|blocksize|lockcost|paradigm [-quick]
//
// With no -fig it regenerates all six result figures (3-8). Simulated
// mode replays the MPF protocol on the Balance 21000 machine model and
// reports throughput and speedup at the paper's absolute scale; native
// mode runs the real implementation on the host.
//
// -contention runs the contention-scaling benchmark: open/close churn
// throughput versus worker count for the paper's single-lock registry
// against the sharded registry with batched sends, followed by the
// per-shard registry lock statistics of the largest sharded run.
//
// -select runs the selector-scaling benchmark: spurious wakeups per
// delivered message versus idle-circuit count for the Selector and the
// per-circuit-waiter ReceiveAny against a model of the old global
// activity pulse (the thundering herd).
//
// -copies runs the copy ablation: delivered throughput across payload
// sizes and BROADCAST fan-out for the paper plane (classic chains, two
// structural copies), the span-allocated copy plane, and the zero-copy
// plane (loans in, views out). With -xproc it appends the same-machine
// cross-process leg: the zero-copy protocol driven through a shared
// memfd segment to real forked child processes (mpfbench re-execs
// itself as the workers), with the serving side's futex waiter
// counters per message alongside the throughput.
//
// -loanbatch runs the batched zero-copy ablation: delivered throughput
// and arena lock acquisitions per message versus batch size for the
// batched pipeline (LoanBatch/CommitAll + Selector.WaitViews) against
// the per-message loan/view plane.
//
// -credit runs the flow-control fairness ablation: cold-circuit p99
// Send latency and hot-circuit throughput versus the per-circuit
// credit budget (0 = flow control off, the paper's global-exhaustion
// behaviour) on an 8-circuit hot/cold mix.
//
// -tuning runs the self-tuning ablation: the adaptive harvest budget
// against the historical fixed greedy sweep on a bursty multi-circuit
// drain (throughput, rounds, worst-case starvation), the padded versus
// packed false-sharing microbench, pinned versus floating Run workers
// (skipped gracefully where thread pinning is refused), and the
// huge-page hint's throughput and MADV_HUGEPAGE outcome.
//
// -crash runs the crash-robustness ablation: K of 4 forked children
// carry armed crash fault points (MPF_FAULTPOINTS) and die mid-protocol
// at attach, claim, ack or fill; the respawn supervisor detects the
// deaths, reclaims their slots (drains dead-generation ring records,
// restores pinned views, refunds credit) and restarts them. The run
// fails unless every slot ends reusable, the credit ledger is quiescent
// and no arena block leaked; the table shows reclaim latency and the
// throughput the surviving children sustained.
//
// -json measures the machine-readable performance trajectory — the
// contention, selector, copies, loan-batch, credit, cross-process,
// self-tuning and crash headlines — and writes it to the given path
// (default BENCH.json); CI uploads the file as an artifact.
//
// -compare loads two BENCH.json files (previous/baseline, then fresh),
// prints a markdown delta table over every headline metric present in
// both, and exits 1 if any metric regressed beyond -tolerance
// (relative, default 0.25). With -ratios-only, raw throughput metrics
// are skipped and only the scale-invariant ratios and lock counts are
// held — the right mode when the baseline was measured on different
// hardware, such as the committed BENCH_BASELINE.json seed. The
// perf-regression CI job appends the table to $GITHUB_STEP_SUMMARY
// and inherits the exit code.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/mpf"
)

// xprocChild runs the cross-process worker when the benchmark re-execs
// this binary: attach to the parent's segment over the inherited
// socket, serve the loan/view protocol, exit. Checked before flag
// parsing — a worker must never interpret the parent's flags.
func xprocChild() {
	cl, err := mpf.AttachProc()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpfbench worker: attach: %v\n", err)
		os.Exit(1)
	}
	if err := cl.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "mpfbench worker: %v\n", err)
		os.Exit(1)
	}
	if err := cl.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "mpfbench worker: unmap: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	if os.Getenv("MPFBENCH_XPROC_CHILD") != "" {
		xprocChild()
		return
	}
	// Any invocation may reach the cross-process leg (-json measures it,
	// -copies -xproc sweeps it): teach the bench package to re-exec this
	// binary in worker mode.
	if bin, err := os.Executable(); err == nil {
		bench.XProcSpawnSelf = func() (string, []string) {
			return bin, []string{"MPFBENCH_XPROC_CHILD=1"}
		}
	}
	figFlag := flag.String("fig", "all", "figure to regenerate: 3..8 or 'all'")
	modeFlag := flag.String("mode", "simulated", "substrate: simulated, native or both")
	quick := flag.Bool("quick", false, "smaller sweeps (≈10× faster, same shapes)")
	ablate := flag.String("ablate", "", "ablation study instead of figures: schemes, blocksize or lockcost")
	contention := flag.Bool("contention", false, "contention-scaling benchmark: sharded registry + batched sends vs the paper's single lock")
	sel := flag.Bool("select", false, "selector-scaling benchmark: per-circuit wakeups vs the global activity pulse")
	copies := flag.Bool("copies", false, "copy ablation: paper plane vs span copy plane vs zero-copy loan/view plane")
	xproc := flag.Bool("xproc", false, "with -copies, add the same-machine cross-process leg: zero-copy loan/view through a shared memfd segment to forked child processes")
	loanbatch := flag.Bool("loanbatch", false, "batched zero-copy ablation: LoanBatch/WaitViews pipeline vs the per-message loan/view plane")
	credit := flag.Bool("credit", false, "flow-control fairness ablation: cold-circuit latency and hot throughput vs per-circuit credit budget")
	tuning := flag.Bool("tuning", false, "self-tuning ablation: adaptive vs fixed harvest budgets, padded vs packed hot words, pinned vs floating workers, huge vs base pages")
	crash := flag.Bool("crash", false, "crash-robustness ablation: kill K of 4 children at armed fault points, reclaim their slots, measure survivor throughput and reclaim latency")
	jsonOut := flag.String("json", "", "measure the perf trajectory and write it as JSON to this path (use BENCH.json for the CI artifact)")
	compare := flag.Bool("compare", false, "compare two BENCH.json files (old new); exit 1 on regression beyond -tolerance")
	tolerance := flag.Float64("tolerance", 0.25, "relative loss a metric may take before -compare fails (0.25 = 25%)")
	ratiosOnly := flag.Bool("ratios-only", false, "with -compare, hold only scale-invariant ratios and lock counts (for baselines measured on different hardware)")
	flag.Parse()

	if *compare {
		// Accept trailing -tolerance / -ratios-only too (mpfbench
		// -compare old new -tolerance 0.3): flag.Parse stops at the
		// first positional.
		args := flag.Args()
		var paths []string
		for i := 0; i < len(args); i++ {
			if args[i] == "-ratios-only" || args[i] == "--ratios-only" {
				*ratiosOnly = true
				continue
			}
			if args[i] == "-tolerance" || args[i] == "--tolerance" {
				if i+1 >= len(args) {
					fmt.Fprintln(os.Stderr, "mpfbench: -tolerance needs a value")
					os.Exit(2)
				}
				v, err := strconv.ParseFloat(args[i+1], 64)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mpfbench: bad -tolerance %q\n", args[i+1])
					os.Exit(2)
				}
				*tolerance = v
				i++
				continue
			}
			paths = append(paths, args[i])
		}
		if len(paths) != 2 {
			fmt.Fprintln(os.Stderr, "mpfbench: -compare needs exactly two paths: old.json new.json")
			os.Exit(2)
		}
		oldS, err := bench.ReadSummary(paths[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: compare: %v\n", err)
			os.Exit(1)
		}
		newS, err := bench.ReadSummary(paths[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: compare: %v\n", err)
			os.Exit(1)
		}
		rows, regressions, err := bench.Compare(oldS, newS, *tolerance, *ratiosOnly)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: compare: %v\n", err)
			os.Exit(1)
		}
		if *ratiosOnly {
			fmt.Println("(ratios-only: raw throughputs skipped — baseline measured on different hardware)")
			fmt.Println()
		}
		fmt.Print(bench.RenderCompare(rows, regressions, *tolerance))
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	if *jsonOut != "" {
		path := *jsonOut
		summary, err := bench.Summary(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: json: %v\n", err)
			os.Exit(1)
		}
		if err := summary.Write(path); err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (contention %.1fx, selector %.1fx, copies", path,
			summary.Contention.Advantage, summary.Selector.WakeupAdvantage)
		for _, p := range summary.Copies {
			fmt.Printf(" %.1fx@%dB/fan%d", p.Advantage, p.PayloadBytes, p.FanOut)
		}
		fmt.Printf(", loanbatch %.1fx throughput / %.1fx lock amortisation",
			summary.LoanBatch.Advantage, summary.LoanBatch.LockAmortisation)
		fmt.Printf(", credit %.1fx cold-p99 fairness", summary.Credit.FairnessAdvantage)
		if summary.XProc.Supported {
			fmt.Printf(", xproc %.0f msgs/s / %.1f polls+1/msg",
				summary.XProc.MsgsPerSec, summary.XProc.SpinPollsPerMsgPlus1)
		} else {
			fmt.Print(", xproc unsupported")
		}
		fmt.Printf(", tuning %.1fx round amortisation", summary.Tuning.RoundAmortisation)
		if summary.Crash.Supported {
			fmt.Printf(", crash %d/%d reclaimed @ %.0fµs max", summary.Crash.Deaths,
				summary.Crash.Victims, summary.Crash.ReclaimMaxMicros)
		} else {
			fmt.Print(", crash unsupported")
		}
		fmt.Println(")")
		return
	}

	if *copies {
		bySize, byFanout, err := bench.CopiesSweep(bench.Config{Mode: bench.Native, Quick: *quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: copies: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(bySize.Render())
		fmt.Println(byFanout.Render())
		if *xproc {
			table, err := bench.XProcSweep(*quick)
			if err != nil {
				if errors.Is(err, mpf.ErrNoSharedBackend) {
					fmt.Println("cross-process leg: no shared segment backend on this platform; skipped")
					return
				}
				fmt.Fprintf(os.Stderr, "mpfbench: xproc: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(table)
		}
		return
	}

	if *loanbatch {
		throughput, locks, err := bench.LoanBatchSweep(bench.Config{Mode: bench.Native, Quick: *quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: loanbatch: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(throughput.Render())
		fmt.Println(locks.Render())
		return
	}

	if *credit {
		latency, hot, err := bench.CreditSweep(bench.Config{Mode: bench.Native, Quick: *quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: credit: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(latency.Render())
		fmt.Println(hot.Render())
		return
	}

	if *tuning {
		report, err := bench.TuningReport(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: tuning: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(report)
		return
	}

	if *crash {
		table, err := bench.CrashSweep(*quick)
		if err != nil {
			if errors.Is(err, mpf.ErrNoSharedBackend) {
				fmt.Println("crash ablation: no shared segment backend on this platform; skipped")
				return
			}
			fmt.Fprintf(os.Stderr, "mpfbench: crash: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(table)
		return
	}

	if *sel {
		fig, err := bench.SelectorSweep(bench.Config{Mode: bench.Native, Quick: *quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: select: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(fig.Render())
		return
	}

	if *contention {
		fig, registry, err := bench.ContentionSweep(bench.Config{Mode: bench.Native, Quick: *quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: contention: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(fig.Render())
		fmt.Println(stats.RenderLockStats(
			fmt.Sprintf("Registry shard lock traffic (largest sharded run, batch=%d)", bench.ContentionBatch),
			registry))
		return
	}

	if *ablate != "" {
		cfg := bench.Config{Mode: bench.Simulated, Quick: *quick}
		var (
			fig *stats.Figure
			err error
		)
		switch strings.ToLower(*ablate) {
		case "schemes":
			fig = bench.AblationSchemes(cfg)
		case "blocksize":
			fig, err = bench.AblationBlockSize(cfg)
		case "lockcost":
			fig, err = bench.AblationLockCost(cfg)
		case "paradigm":
			fig, err = bench.AblationParadigm(cfg)
		default:
			fmt.Fprintf(os.Stderr, "mpfbench: unknown ablation %q\n", *ablate)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: ablation %s: %v\n", *ablate, err)
			os.Exit(1)
		}
		fmt.Println(fig.Render())
		return
	}

	var modes []bench.Mode
	switch strings.ToLower(*modeFlag) {
	case "simulated", "sim":
		modes = []bench.Mode{bench.Simulated}
	case "native":
		modes = []bench.Mode{bench.Native}
	case "both":
		modes = []bench.Mode{bench.Simulated, bench.Native}
	default:
		fmt.Fprintf(os.Stderr, "mpfbench: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	var figs []int
	if *figFlag == "all" {
		figs = []int{3, 4, 5, 6, 7, 8}
	} else {
		n, err := strconv.Atoi(*figFlag)
		if err != nil || n < 3 || n > 8 {
			fmt.Fprintf(os.Stderr, "mpfbench: -fig must be 3..8 or 'all', got %q\n", *figFlag)
			os.Exit(2)
		}
		figs = []int{n}
	}

	generators := map[int]func(bench.Config) (*stats.Figure, error){
		3: bench.Fig3, 4: bench.Fig4, 5: bench.Fig5,
		6: bench.Fig6, 7: bench.Fig7, 8: bench.Fig8,
	}

	for _, mode := range modes {
		for _, n := range figs {
			cfg := bench.Config{Mode: mode, Quick: *quick}
			fig, err := generators[n](cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpfbench: figure %d (%s): %v\n", n, mode, err)
				os.Exit(1)
			}
			fmt.Println(fig.Render())
		}
	}
}
