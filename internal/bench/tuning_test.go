package bench

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shm"
)

// TestTuningAdvantage is the PR 8 acceptance gate for the adaptive
// harvest budget: on the headline bursty drain the auto budget must
// deliver at least fixed-budget throughput, no ready circuit may wait
// more than 3 rounds (the fairness-cap bound — the greedy fixed sweep
// lets the wait grow to most of the drain), and the adaptive machinery
// must demonstrably engage (budget gauge beyond the fixed budget, cap
// truncations counted). Throughputs are best-of-3, like the summary;
// the round counts and starvation numbers are deterministic.
func TestTuningAdvantage(t *testing.T) {
	const bursts = 8
	var fixed, auto TuningHarvestResult
	autoStarve := -1
	for i := 0; i < 3; i++ {
		f, err := NativeTuningHarvest(false, TuningCircuits, bursts, TuningBurstDepth)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NativeTuningHarvest(true, TuningCircuits, bursts, TuningBurstDepth)
		if err != nil {
			t.Fatal(err)
		}
		if f.MsgsPerSec > fixed.MsgsPerSec {
			fixed = f
		}
		if a.MsgsPerSec > auto.MsgsPerSec {
			auto = a
		}
		if autoStarve < 0 || a.MaxStarvationRounds < autoStarve {
			autoStarve = a.MaxStarvationRounds
		}
	}
	t.Logf("fixed: %.0f msgs/s in %d rounds, worst starvation %d; auto: %.0f msgs/s in %d rounds, worst starvation %d (budget peak %d, cap hits %d)",
		fixed.MsgsPerSec, fixed.Rounds, fixed.MaxStarvationRounds,
		auto.MsgsPerSec, auto.Rounds, auto.MaxStarvationRounds, auto.BudgetPeak, auto.CapHits)
	if auto.MsgsPerSec < fixed.MsgsPerSec {
		t.Errorf("auto budget %.0f msgs/s below fixed budget %.0f msgs/s at burst depth %d",
			auto.MsgsPerSec, fixed.MsgsPerSec, TuningBurstDepth)
	}
	if autoStarve > 3 {
		t.Errorf("a ready circuit waited %d rounds under the auto budget, want <= 3", autoStarve)
	}
	if auto.Rounds >= fixed.Rounds {
		t.Errorf("auto drain took %d rounds, fixed %d: adaptive budget never amortised",
			auto.Rounds, fixed.Rounds)
	}
	if auto.BudgetPeak <= TuningFixedBudget {
		t.Errorf("auto budget peaked at %d, never beyond the fixed budget %d during a %d-deep burst drain",
			auto.BudgetPeak, TuningFixedBudget, TuningBurstDepth)
	}
	if auto.CapHits == 0 {
		t.Error("fairness cap never counted a truncation while 4 saturated circuits shared rounds")
	}
	// The contrast that motivates the cap: the greedy fixed sweep
	// serves circuits to exhaustion in ready order, so the last circuit
	// waits for most of the drain.
	if fixed.MaxStarvationRounds <= 3*autoStarve+3 {
		t.Errorf("fixed-budget worst starvation %d rounds not meaningfully above auto's %d: workload too shallow to gate",
			fixed.MaxStarvationRounds, autoStarve)
	}
}

// TestTuningFalseSharing checks the microbench mechanics, then asserts
// that the packed words cost at least what the padded ones do. That
// cost only exists while the two goroutines count on two cores at
// once, and a loaded machine (a parallel go test ./..., a busy runner)
// often runs them one after the other or time-sliced onto one CPU,
// which makes packed ≈ padded. So the ordering is taken over the
// stretches where both were counting (falseSharingWindows), retrying
// for up to fsRetryFor until a trial has enough of them; if none has,
// the last trial's windows are asserted on all the same.
func TestTuningFalseSharing(t *testing.T) {
	packed, padded := TuningFalseSharing(200_000)
	if packed <= 0 || padded <= 0 {
		t.Fatalf("non-positive timing: packed %.2f ns/op, padded %.2f ns/op", packed, padded)
	}
	t.Logf("packed %.1f ns/op, padded %.1f ns/op, advantage %.2fx", packed, padded, packed/padded)
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single CPU: false sharing has no cross-core victim here")
	}
	packedW := falseSharingTogether(1, 200_000)
	paddedW := falseSharingTogether(8, 200_000)
	t.Logf("counting together: packed %v, padded %v", packedW, paddedW)
	if packedW.nsPerOp < paddedW.nsPerOp {
		t.Errorf("packed counters (%v) beat padded (%v): false-sharing cost invisible on this box",
			packedW, paddedW)
	}
}

const (
	// fsRetryFor bounds falseSharingTogether's retries of a trial whose
	// goroutines were seldom counting together: long enough for the
	// load of a parallel test run to move off one of the CPUs.
	fsRetryFor = time.Second
	// fsWindow is the number of increments a goroutine times as one
	// window, reading its partner's word at the window's end: rare
	// enough to add no measurable line traffic, short enough that many
	// windows fit in one scheduler time slice.
	fsWindow = 1024
)

// fsTrial is one falseSharingWindows trial: the median nanoseconds per
// increment over the shared windows when at least a quarter of all
// windows were shared, and over all windows otherwise.
type fsTrial struct {
	nsPerOp     float64
	shared, all int
}

func (r fsTrial) together() bool { return 4*r.shared >= r.all }

func (r fsTrial) String() string {
	return fmt.Sprintf("%.1f ns/op, %d of %d windows shared", r.nsPerOp, r.shared, r.all)
}

// falseSharingTogether runs falseSharingWindows on words gapWords
// apart until a trial counted together, for up to fsRetryFor, and
// returns that trial or the last one.
func falseSharingTogether(gapWords, iters int) fsTrial {
	words := falseSharingWords(gapWords)
	deadline := time.Now().Add(fsRetryFor)
	for {
		r := falseSharingWindows(words, iters)
		if r.together() || time.Now().After(deadline) {
			return r
		}
	}
}

// falseSharingWindows runs one trial from zeroed words. Both goroutines
// pass a spin barrier, then each increments its word iters times,
// timing each window of fsWindow increments. A window is shared when
// the partner advanced by between half and twice a window meanwhile:
// both were counting, neither was descheduled. Start/end overlap alone
// is not enough: two threads time-sliced on one CPU overlap in wall
// time but share no line traffic.
func falseSharingWindows(words [2]*uint64, iters int) fsTrial {
	*words[0], *words[1] = 0, 0
	var ready atomic.Int32
	var shared, all [2][]time.Duration
	var wg sync.WaitGroup
	wg.Add(len(words))
	for g := range words {
		go func(g int) {
			defer wg.Done()
			mine, partner := words[g], words[1-g]
			all[g] = make([]time.Duration, 0, iters/fsWindow)
			shared[g] = make([]time.Duration, 0, iters/fsWindow)
			ready.Add(1)
			for ready.Load() < int32(len(words)) {
				runtime.Gosched()
			}
			seen, t0 := atomic.LoadUint64(partner), time.Now()
			for i := 1; i <= iters; i++ {
				atomic.AddUint64(mine, 1)
				if i%fsWindow == 0 {
					p, t1 := atomic.LoadUint64(partner), time.Now()
					all[g] = append(all[g], t1.Sub(t0))
					if d := p - seen; d >= fsWindow/2 && d <= 2*fsWindow {
						shared[g] = append(shared[g], t1.Sub(t0))
					}
					seen, t0 = p, t1
				}
			}
		}(g)
	}
	wg.Wait()
	r := fsTrial{shared: len(shared[0]) + len(shared[1]), all: len(all[0]) + len(all[1])}
	windows := append(all[0], all[1]...)
	if r.together() {
		windows = append(shared[0], shared[1]...)
	}
	slices.Sort(windows)
	r.nsPerOp = float64(windows[len(windows)/2].Nanoseconds()) / fsWindow
	return r
}

// TestTuningPinned runs the affinity ablation where pinning works and
// proves the probe's graceful-skip contract elsewhere.
func TestTuningPinned(t *testing.T) {
	if !TuningAffinityProbe() {
		t.Skip("thread pinning unsupported or refused on this runner")
	}
	floating, err := NativeTuningPinned(false, 1000)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := NativeTuningPinned(true, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if floating <= 0 || pinned <= 0 {
		t.Fatalf("non-positive throughput: floating %.0f, pinned %.0f", floating, pinned)
	}
	t.Logf("floating %.0f msgs/s, pinned %.0f msgs/s, advantage %.2fx",
		floating, pinned, pinned/floating)
}

// TestTuningHugePages drives the hinted stream and checks the
// accounting: the hint must be recorded as requested, and on a kernel
// that accepts MADV_HUGEPAGE the 8 MiB arena must report a 2 MiB-sized
// advised interior. A kernel with THP compiled out refuses the advice;
// that is a recorded outcome, not a failure.
func TestTuningHugePages(t *testing.T) {
	tput, hs, err := NativeTuningHuge(true, 300)
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 {
		t.Fatalf("non-positive throughput %.0f", tput)
	}
	if !hs.Requested {
		t.Fatal("WithHugePages did not record the hint as requested")
	}
	if hs.Err != nil {
		t.Skipf("kernel refused MADV_HUGEPAGE: %v", hs.Err)
	}
	if runtime.GOOS == "linux" && hs.AdvisedBytes < shm.HugePageBytes {
		t.Errorf("advised %d bytes of an 8 MiB arena, want >= one huge page (%d)",
			hs.AdvisedBytes, shm.HugePageBytes)
	}
	t.Logf("huge-page stream %.0f msgs/s, %d bytes advised", tput, hs.AdvisedBytes)
}

// TestSummaryTuningSection: CI's BENCH.json gate holds the tuning
// section's round amortisation, so the trajectory summary must carry a
// populated section with sane values on every platform — the harvest
// ablation has no hardware dependency to degrade on.
func TestSummaryTuningSection(t *testing.T) {
	if testing.Short() {
		t.Skip("full Summary run")
	}
	s, err := Summary(true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema != 6 {
		t.Fatalf("schema %d, want 6", s.Schema)
	}
	tu := s.Tuning
	if tu.FixedMsgsPerSec <= 0 || tu.AutoMsgsPerSec <= 0 {
		t.Fatalf("non-positive harvest throughput: %+v", tu)
	}
	if tu.AutoRounds <= 0 || tu.FixedRounds <= tu.AutoRounds {
		t.Fatalf("drain rounds implausible: fixed %d, auto %d", tu.FixedRounds, tu.AutoRounds)
	}
	if tu.RoundAmortisation <= 1 {
		t.Fatalf("round amortisation %.2f, want > 1 (adaptive budget never amortised)", tu.RoundAmortisation)
	}
	if tu.FixedStarvationRounds < 0 || tu.AutoStarvationRounds < 0 {
		t.Fatalf("starvation fields never measured: %+v", tu)
	}
	if tu.PackedNsPerOp <= 0 || tu.PaddedNsPerOp <= 0 {
		t.Fatalf("false-sharing timings non-positive: packed %.2f, padded %.2f",
			tu.PackedNsPerOp, tu.PaddedNsPerOp)
	}
	if tu.AffinitySupported != TuningAffinityProbe() {
		t.Fatalf("summary affinity flag %v disagrees with probe", tu.AffinitySupported)
	}
}

// TestTuningReportQuick smokes the -tuning rendering end to end —
// including the graceful affinity skip line on restricted runners.
func TestTuningReportQuick(t *testing.T) {
	out, err := TuningReport(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"harvest budget", "false sharing", "core affinity", "huge pages"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q leg:\n%s", want, out)
		}
	}
}
