package main

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/mpf"
)

// workload is one named set of generated inputs and the closed loop
// that drives them through the facility.
type workload struct {
	name, why string
	// setups is how many times a run repeats the set-up; setup_s is
	// the median.
	setups int
	run    func(p params) *outcome
	// describe, if set, prints the shape of the inputs a seed generates
	// and checks it.
	describe func(out io.Writer, seed int64, led *ledger)
}

// workloads lists every workload; main accepts exactly these names.
var workloads = []*workload{
	{
		name:   "fcfs-copy",
		why:    "the paper's copy plane: two payload copies through msg and shm under the circuit lock per message; per-message and per-byte costs dominate",
		setups: 101, run: runFCFS,
	},
	{
		name:   "views-burst",
		why:    "the zero-copy batched plane: selector harvest, credit and batched arena transactions do the work and msg copies nothing",
		setups: 101, run: runViews, describe: describeViews,
	},
	{
		name:   "xproc-bridge",
		why:    "the only path where the shared-segment ring, the futex notify word and the bridge hop block each message",
		setups: 31, run: runXProc,
	},
	{
		name:   "gauss-solve",
		why:    "the paper's Gauss-Jordan application: broadcast circuits and a latency-bound chain of small messages between compute",
		setups: 101, run: runGauss,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params configures one phase of a workload.
type params struct {
	seed    int64
	warmup  time.Duration
	measure time.Duration
	slices  int
	setups  int
	tr      *tracer // nil for an untraced phase
	led     *ledger
}

// outcome is what one phase measured.
type outcome struct {
	setupS []float64 // one per set-up repetition
	m      *meter
	// delivered counts every verified delivery of the phase — warm-up,
	// timed phase and drain — the base of the per-message layer ratios.
	delivered int64
	// items counts the phase's units of work as the tracer numbers
	// them: messages, batches, round trips or solves.
	items int64
	// stats is the facility's counter delta over the phase, gauges
	// read at its end.
	stats mpf.Stats
	// arenaLocks and arenaContended are the shared region's free-pool
	// lock traffic over the phase.
	arenaLocks, arenaContended uint64
	heapBytes                  uint64
	// layer holds workload-specific per-layer values by metric name.
	layer map[string]float64
}

// sliceCount is how many equal slices a run's timed phase is cut into.
const sliceCount = 20

// setUp runs build p.setups times, timing each, and returns the last
// result with every duration in seconds; each earlier result is torn
// down. Before each repetition the heap is collected and its free
// memory returned to the system, so every set-up allocates its region
// from fresh pages, as a new process does. Reusing the torn-down
// region instead makes a set-up fast or slow by whether the runtime
// has already released that memory, a split that spread setup_s
// between runs by up to 0.3 of its median.
func setUp[T any](p params, name string, build func() (T, error), down func(T)) (last T, secs []float64, ok bool) {
	for i := 0; i < p.setups; i++ {
		if i > 0 {
			down(last)
		}
		debug.FreeOSMemory()
		t0 := now()
		var err error
		last, err = build()
		p.led.op(name+" set-up", err)
		if err != nil {
			return last, nil, false
		}
		secs = append(secs, float64(now()-t0)/1e9)
	}
	return last, secs, true
}

// phaseClock fixes a phase's timeline once set-up is done: the
// warm-up, then the timed phase the meter records.
func phaseClock(p params) (m *meter, end int64) {
	start := now() + int64(p.warmup)
	return newMeter(start, p.measure, p.slices), start + int64(p.measure)
}

// drainGrace bounds how long a phase may run past its timed end.
const drainGrace = 10 * time.Second

// watchStall declares a phase stuck drainGrace after its timed end:
// it records the failure and calls stop, which must fail every call
// the phase can be blocked in, so the run still reports. The caller
// stops the returned timer when the phase ends.
func watchStall(p params, name string, end int64, stop func()) *time.Timer {
	return time.AfterFunc(time.Duration(end-now())+drainGrace, func() {
		p.led.check(false, "%s: still running %v after the timed phase; stopped", name, drainGrace)
		stop()
	})
}

// heapAlloc is the process's cumulative heap allocation.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// statsDelta returns b - a for counters and b for gauges.
func statsDelta(a, b mpf.Stats) mpf.Stats {
	return mpf.Stats{
		Sends:                b.Sends - a.Sends,
		Receives:             b.Receives - a.Receives,
		BytesSent:            b.BytesSent - a.BytesSent,
		BytesRecvd:           b.BytesRecvd - a.BytesRecvd,
		ReceiveWaits:         b.ReceiveWaits - a.ReceiveWaits,
		MessagesDropped:      b.MessagesDropped - a.MessagesDropped,
		MuxWakeups:           b.MuxWakeups - a.MuxWakeups,
		MuxSpurious:          b.MuxSpurious - a.MuxSpurious,
		RegistryAcquisitions: b.RegistryAcquisitions - a.RegistryAcquisitions,
		RegistryContended:    b.RegistryContended - a.RegistryContended,
		PayloadCopiesIn:      b.PayloadCopiesIn - a.PayloadCopiesIn,
		PayloadCopiesOut:     b.PayloadCopiesOut - a.PayloadCopiesOut,
		LoanSends:            b.LoanSends - a.LoanSends,
		ViewReceives:         b.ViewReceives - a.ViewReceives,
		LoanBatchSends:       b.LoanBatchSends - a.LoanBatchSends,
		HarvestedViews:       b.HarvestedViews - a.HarvestedViews,
		CreditStalls:         b.CreditStalls - a.CreditStalls,
		HarvestCapHits:       b.HarvestCapHits - a.HarvestCapHits,
		CreditsHeld:          b.CreditsHeld,
		HarvestAutoBudget:    b.HarvestAutoBudget,
	}
}

// ledgerChecks runs the facility-level checks every message workload
// shares once its traffic has drained: the payload copy ledger, the
// credit ledger and the block count.
func ledgerChecks(led *ledger, name string, st mpf.Stats, wantCopies uint64, freeBefore, freeAfter int) {
	copies := st.PayloadCopiesIn + st.PayloadCopiesOut
	led.check(copies == wantCopies, "%s: %d payload copies, want %d", name, copies, wantCopies)
	led.check(st.CreditsHeld == 0, "%s: %d credit blocks still held after the drain", name, st.CreditsHeld)
	led.check(freeAfter == freeBefore, "%s: %d free blocks after the drain, %d before", name, freeAfter, freeBefore)
}

// Generated inputs. Every workload derives its inputs from the seed
// and its own name, so two workloads run with one seed do not share a
// sequence and the facility sees only the generated values.

func rngFor(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// sizeTable is the cycle of payload sizes a workload sends.
const sizeTable = 1 << 16

// logUniform returns n sizes drawn log-uniformly from [lo, hi].
func logUniform(r *rand.Rand, lo, hi, n int) []int {
	out := make([]int, n)
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	for i := range out {
		out[i] = int(math.Round(math.Exp(l + r.Float64()*(h-l))))
	}
	return out
}

// patternLen is the span of the seeded payload pattern a message body
// is cut from; bodies start at seq-derived offsets below patternWrap.
const (
	patternWrap = 1 << 16
	patternLen  = patternWrap + 16<<10
)

// pattern is the seeded byte stream message bodies are cut from, so a
// receiver can check every payload byte with one comparison.
type pattern []byte

func newPattern(r *rand.Rand) pattern {
	p := make(pattern, patternLen)
	r.Read(p)
	return p
}

// body returns the n expected body bytes of message seq.
func (p pattern) body(seq uint64, n int) []byte {
	off := int(seq * 2654435761 % patternWrap)
	return p[off : off+n]
}

// Every message starts with its sequence number.
func putSeq(b []byte, seq uint64) { binary.LittleEndian.PutUint64(b, seq) }
func getSeq(b []byte) uint64      { return binary.LittleEndian.Uint64(b) }

// endSeq marks the sentinel a producer sends after its last message.
const endSeq = ^uint64(0)

// tsRing holds send timestamps by sequence number; it must be larger
// than the number of messages a workload can have in flight.
const tsRing = 1 << 16
