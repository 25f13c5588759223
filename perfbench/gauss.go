package main

import (
	"repro/internal/apps/gauss"
	"repro/mpf"
)

// gauss-solve shape: systems of gaussN unknowns, where compute and
// messaging both take a material share of a solve, solved by
// gaussWorkers worker processes plus the arbiter; a solution must
// leave every residual below gaussTol.
const (
	gaussN       = 256
	gaussWorkers = 2
	gaussSystems = 4
	gaussTol     = 1e-8
)

type system struct {
	a [][]float64
	b []float64
}

// gaussGen generates the seeded systems the workload cycles through.
func gaussGen(seed int64) []system {
	r := rngFor(seed, "gauss-solve")
	out := make([]system, gaussSystems)
	for i := range out {
		out[i].a, out[i].b = gauss.NewSystem(gaussN, r)
	}
	return out
}

// runGauss solves the seeded systems back to back with gauss.SolveMPF
// on one default facility, checking each solution's residual.
func runGauss(p params) *outcome {
	systems := gaussGen(p.seed)
	out := &outcome{layer: map[string]float64{}}

	fac, setupS, ok := setUp(p, "gauss-solve", func() (*mpf.Facility, error) { return mpf.New() },
		(*mpf.Facility).Shutdown)
	if !ok {
		return nil
	}
	out.setupS = setupS
	defer fac.Shutdown()
	arena := fac.Core().Arena()
	free0 := arena.FreeBlocks()
	st0 := fac.Stats()
	locks0, cont0 := arena.LockStats()
	heap0 := heapAlloc()

	m, end := phaseClock(p)
	out.m = m
	defer watchStall(p, "gauss-solve", end, fac.Shutdown).Stop()
	log := p.tr.log()
	var solves uint64
	prev := st0
	for ; now() < end; solves++ {
		sys := systems[solves%gaussSystems]
		t0 := now()
		x, err := gauss.SolveMPF(fac, gaussWorkers, sys.a, sys.b)
		t1 := now()
		p.led.op("gauss-solve SolveMPF", err)
		if err != nil {
			return nil
		}
		res := gauss.Residual(sys.a, sys.b, x)
		p.led.check(res < gaussTol, "gauss-solve: residual %g not below %g", res, gaussTol)
		cur := fac.Stats()
		m.deliver(t1, int(cur.Receives-prev.Receives), int(cur.BytesRecvd-prev.BytesRecvd), t0, false)
		prev = cur
		if p.tr.traced(solves) {
			log.add("gauss.SolveMPF", "gauss.solve", solves, t0, t1)
			log.add("gauss.solve", "", solves, t0, t1)
		}
	}

	st := statsDelta(st0, fac.Stats())
	locks1, cont1 := arena.LockStats()
	out.stats, out.arenaLocks, out.arenaContended = st, locks1-locks0, cont1-cont0
	out.heapBytes = heapAlloc() - heap0
	out.delivered, out.items = int64(st.Receives), int64(solves)
	out.layer["apps.gauss_msgs_per_solve"] = float64(st.Sends) / float64(max(solves, 1))
	p.led.check(st.CreditsHeld == 0, "gauss-solve: %d credit blocks still held", st.CreditsHeld)
	p.led.check(arena.FreeBlocks() == free0, "gauss-solve: %d free blocks after the solves, %d before", arena.FreeBlocks(), free0)
	p.led.check(st.MessagesDropped == 0, "gauss-solve: %d messages dropped unread", st.MessagesDropped)
	return out
}
