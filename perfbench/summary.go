package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks, or NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is stats.Median, but NaN for an empty sample, so a metric
// with no samples fails the run's missing-value check.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Median(xs)
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default exclusive method — the rule the benchmark's run-to-run
// spread is judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	m := n + 1
	var cut [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		cut[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut[0], cut[1], cut[2], true
}

// tailBeyond is the number of samples a reported tail percentile must
// leave above it: a percentile with fewer samples beyond it is noise.
const tailBeyond = 10

// tail returns the highest percentile not above want that leaves at
// least tailBeyond samples beyond it, with its value. ok is false when
// the sample is too small for any such percentile above the median.
func tail(sorted []float64, want float64) (value, pct float64, ok bool) {
	n := float64(len(sorted))
	pct = math.Min(want, 100*(1-tailBeyond/n))
	if pct <= 50 {
		return 0, 0, false
	}
	return quantile(sorted, pct/100), pct, true
}

// ledger counts attempted and failed operations across goroutines. An
// operation fails when it returns an error (a refusal such as
// ErrNoCredit or ErrTimeout included) or when a check on its output
// fails; the first failures are kept for the report.
type ledger struct {
	attempted, failed atomic.Int64

	mu    sync.Mutex
	notes []string
}

// maxNotes bounds the failure descriptions kept for the report.
const maxNotes = 8

// op records one attempted operation and, if err is non-nil, its
// failure.
func (l *ledger) op(what string, err error) {
	l.attempted.Add(1)
	if err != nil {
		l.fail("%s: %v", what, err)
	}
}

// check records one attempted correctness check, failed unless ok.
func (l *ledger) check(ok bool, format string, args ...any) {
	l.attempted.Add(1)
	if !ok {
		l.fail(format, args...)
	}
}

// count records n attempted operations whose failures, if any, are
// recorded with fail. Hot loops count locally and add once, so the
// ledger stays off their path.
func (l *ledger) count(n int64) { l.attempted.Add(n) }

// fail records a failure of an operation already counted as attempted.
func (l *ledger) fail(format string, args ...any) {
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.notes) < maxNotes {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// failRatio is failed over attempted operations.
func (l *ledger) failRatio() ratio {
	return ratio{num: float64(l.failed.Load()), den: float64(l.attempted.Load()), base: "failed/attempted"}
}

// ratio is a quotient that keeps its base, so a report can say what
// was divided by what: "0.25 (3/12 stalls/msg)".
type ratio struct {
	num, den float64
	base     string
}

// value is num/den, and 0 for an empty base (no events to divide).
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%.0f/%.0f %s)", r.value(), r.num, r.den, r.base)
}
