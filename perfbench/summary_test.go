package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
}

// TestQuartiles checks against values from Python's
// statistics.quantiles(xs, n=4), the rule the run-to-run spread is
// judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		if !ok || got != c.want {
			t.Errorf("quartiles(%v) = %v (ok %v), want %v", c.xs, got, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{1000, 99},
		{100000, 99},
		{500, 98},
		{100, 90},
	} {
		v, pct, ok := tail(sorted(c.n), 99)
		if !ok || math.Abs(pct-c.wantPct) > 1e-9 {
			t.Fatalf("n=%d: tail at p%v (ok %v), want p%v", c.n, pct, ok, c.wantPct)
		}
		beyond := 0
		for _, x := range sorted(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond, want at least %d", c.n, pct, v, beyond, tailBeyond)
		}
	}
	if _, _, ok := tail(sorted(15), 99); ok {
		t.Error("15 samples gave a tail percentile above the median")
	}
}

func TestLedgerCountsRefusalsAsFailures(t *testing.T) {
	var l ledger
	l.op("send", nil)
	l.op("send", errors.New("no credit: refused"))
	l.check(true, "ok")
	l.check(false, "payload %d mismatch", 7)
	r := l.failRatio()
	if r.num != 2 || r.den != 4 || r.value() != 0.5 {
		t.Fatalf("fail ratio %v, want 2/4", r)
	}
	if len(l.notes) != 2 || !strings.Contains(l.notes[0], "refused") || l.notes[1] != "payload 7 mismatch" {
		t.Errorf("notes %q", l.notes)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{num: 3, den: 12, base: "stalls/msg"}
	if got, want := r.String(), "0.25 (3/12 stalls/msg)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	empty := ratio{base: "waits/receives"}
	if empty.value() != 0 || !strings.Contains(empty.String(), "(0/0 waits/receives)") {
		t.Errorf("empty ratio %v", empty)
	}
}

func TestSamplesDecimateEvenly(t *testing.T) {
	var s samples
	n := 5 * sampleCap
	for i := 0; i < n; i++ {
		s.add(float64(i))
	}
	if len(s.xs) < sampleCap/2 || len(s.xs) >= sampleCap {
		t.Fatalf("kept %d samples, want between %d and %d", len(s.xs), sampleCap/2, sampleCap)
	}
	if first, last := s.xs[0], s.xs[len(s.xs)-1]; first > float64(s.stride) || last < float64(n-2*int(s.stride)) {
		t.Errorf("samples span %v..%v of 0..%d", first, last, n-1)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{every: 1}
	l := tr.log()
	l.add("root", "", 1, 0, 100)
	l.add("a", "root", 1, 10, 40)
	l.add("b", "root", 1, 30, 60) // overlaps a
	l.add("root", "", 2, 0, 50)
	st := tr.summarize()
	if got := st["root"]; got.count != 2 || got.meanNs() != 75 || got.meanSelfNs() != (50+50)/2.0 {
		t.Errorf("root: %+v (self mean %v)", got, got.meanSelfNs())
	}
	if got := st["a"].meanSelfNs(); got != 30 {
		t.Errorf("leaf self %v, want its duration 30", got)
	}
}
