package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/mpf"
)

// views-burst traffic. No measured traffic profile is in the
// repository, so these values are chosen; each is tied to a counter
// the traced run reports, so a reader can see that it does its job.
const (
	// 256-byte blocks keep a 4 KiB payload at 17 blocks.
	viewsBlockSize = 256
	viewsMaxSize   = 4 << 10
	viewsMaxBlocks = (viewsMaxSize + viewsBlockSize - 4 - 1) / (viewsBlockSize - 4)
	// On-state bursts of 32–128 loans straddle the auto-harvest
	// maximum, so a harvest round fills its budget, the budget climbs
	// to the maximum and rounds are cut at it
	// (core.harvest_auto_budget, core.harvest_cap_hits_per_wait).
	// Off-state bursts of 1–4 let the budget decay toward the minimum.
	viewsOnLo, viewsOnHi   = 32, 128
	viewsOffLo, viewsOffHi = 1, 4
	viewsHarvestLo         = viewsOffLo
	viewsHarvestHi         = 64
	// An on-state burst ends the on state with probability 1/4, an
	// off-state burst ends the off state with probability 1/8: runs of
	// 4 long bursts between runs of 8 short ones, on a third of the
	// bursts. The burst lengths then have a squared coefficient of
	// variation near 2; viewsInputs.burstiness checks it is above 1,
	// the MMPP notion of bursty traffic.
	viewsLeaveOn, viewsLeaveOff = 4, 8
	// One burst in four is followed by one cold loan.
	viewsColdEvery = 4
	// Credit is the demand of the largest possible burst, the smallest
	// credit under which no LoanBatch can fail with ErrNoCredit. A
	// producer more than about six average on-state bursts ahead of
	// the consumer stalls (core.credit_stalls_per_msg).
	viewsCredit = viewsOnHi * viewsMaxBlocks
	viewsHeader = 16
)

// burst is one LoanBatch of the hot producer, optionally followed by
// one single loan on the cold circuit.
type burst struct {
	n    int
	cold bool
}

type viewsInputs struct {
	sizes  []int // hot and cold payload sizes, 64 B–4 KiB
	bursts []burst
	pat    pattern
}

// viewsGen generates views-burst's inputs: burst lengths follow a
// two-state on/off (MMPP-style) chain, and some bursts are followed by
// one cold loan (see the constants above).
func viewsGen(seed int64) viewsInputs {
	r := rngFor(seed, "views-burst")
	in := viewsInputs{sizes: logUniform(r, 64, viewsMaxSize, sizeTable), pat: newPattern(r)}
	on := true
	for i := 0; i < sizeTable; i++ {
		b := burst{cold: r.Intn(viewsColdEvery) == 0}
		if on {
			b.n = viewsOnLo + r.Intn(viewsOnHi-viewsOnLo+1)
			on = r.Intn(viewsLeaveOn) != 0
		} else {
			b.n = viewsOffLo + r.Intn(viewsOffHi-viewsOffLo+1)
			on = r.Intn(viewsLeaveOff) == 0
		}
		in.bursts = append(in.bursts, b)
	}
	return in
}

// burstiness returns the mean and the squared coefficient of variation
// (variance over squared mean) of the generated burst lengths.
func (in *viewsInputs) burstiness() (mean, scv float64) {
	var sum, sq float64
	for _, b := range in.bursts {
		sum += float64(b.n)
		sq += float64(b.n) * float64(b.n)
	}
	n := float64(len(in.bursts))
	mean = sum / n
	return mean, (sq/n - mean*mean) / (mean * mean)
}

// describeViews prints the shape of the generated bursts and checks
// that they are bursty.
func describeViews(out io.Writer, seed int64, led *ledger) {
	in := viewsGen(seed)
	mean, scv := in.burstiness()
	fmt.Fprintf(out, "views-burst inputs: burst length mean %.4g loans, SCV %.4g (want > 1); credit %d blocks, auto harvest %d..%d\n",
		mean, scv, viewsCredit, viewsHarvestLo, viewsHarvestHi)
	led.check(scv > 1, "views-burst: burst lengths have SCV %.4g, want > 1", scv)
}

type viewsRig struct {
	fac            *mpf.Facility
	hot, cold      *mpf.SendConn
	hotRx, coldRx  *mpf.RecvConn
	sel            *mpf.Selector
	hotID, coldID  mpf.ID
	producer, cons *mpf.Process
}

func setupViews() (*viewsRig, error) {
	fac, err := mpf.New(mpf.WithBlockSize(viewsBlockSize), mpf.WithCredit(viewsCredit),
		mpf.WithAutoHarvest(viewsHarvestLo, viewsHarvestHi))
	if err != nil {
		return nil, err
	}
	rig := &viewsRig{fac: fac}
	rig.producer, _ = fac.Process(0)
	rig.cons, _ = fac.Process(1)
	fail := func(err error) (*viewsRig, error) {
		fac.Shutdown()
		return nil, err
	}
	if rig.hotRx, err = rig.cons.OpenReceive("hot", mpf.FCFS); err != nil {
		return fail(err)
	}
	if rig.coldRx, err = rig.cons.OpenReceive("cold", mpf.FCFS); err != nil {
		return fail(err)
	}
	if rig.hot, err = rig.producer.OpenSend("hot"); err != nil {
		return fail(err)
	}
	if rig.cold, err = rig.producer.OpenSend("cold"); err != nil {
		return fail(err)
	}
	if rig.sel, err = rig.cons.NewSelector(); err != nil {
		return fail(err)
	}
	for _, rc := range []*mpf.RecvConn{rig.hotRx, rig.coldRx} {
		if err := rig.sel.Add(rc); err != nil {
			return fail(err)
		}
	}
	rig.hotID, rig.coldID = rig.hotRx.ID(), rig.coldRx.ID()
	return rig, nil
}

// The views-burst header: sequence number on its circuit, batch
// number, index within the batch and batch length.
func putViewsHeader(b []byte, seq uint64, batch uint32, idx, n uint16) {
	binary.LittleEndian.PutUint64(b, seq)
	binary.LittleEndian.PutUint32(b[8:], batch)
	binary.LittleEndian.PutUint16(b[12:], idx)
	binary.LittleEndian.PutUint16(b[14:], n)
}

// fill writes message seq's header and body into a loan window.
func (in *viewsInputs) fill(dst []byte, seq uint64, batch uint32, idx, n int) {
	putViewsHeader(dst, seq, batch, uint16(idx), uint16(n))
	copy(dst[viewsHeader:], in.pat.body(seq, len(dst)-viewsHeader))
}

// contents returns a view's payload as one slice. Span allocation
// keeps payloads contiguous; a fragmented one is gathered into
// scratch without the facility's copy path (View.CopyTo would count
// in the copy ledger).
func contents(v *mpf.View, scratch []byte) []byte {
	if b, ok := v.Bytes(); ok {
		return b
	}
	out := scratch[:0]
	v.Segments(func(seg []byte) bool {
		out = append(out, seg...)
		return true
	})
	return out
}

// runViews drives the batched zero-copy plane: a producer sends
// LoanBatch/CommitAll bursts on a hot circuit and sparse single loans
// on a cold one, under per-circuit credit; one consumer harvests both
// with Selector.WaitViews(0) and releases each harvest with
// ReleaseViews.
func runViews(p params) *outcome {
	in := viewsGen(p.seed)
	out := &outcome{layer: map[string]float64{}}

	rig, setupS, ok := setUp(p, "views-burst", setupViews, func(r *viewsRig) { r.fac.Shutdown() })
	if !ok {
		return nil
	}
	out.setupS = setupS
	defer rig.fac.Shutdown()
	arena := rig.fac.Core().Arena()
	free0 := arena.FreeBlocks()
	st0 := rig.fac.Stats()
	locks0, cont0 := arena.LockStats()
	heap0 := heapAlloc()

	m, end := phaseClock(p)
	out.m = m
	defer watchStall(p, "views-burst", end, rig.fac.Shutdown).Stop()
	// Commit start times by sequence number, hot and cold, and the
	// LoanBatch start time of each batch (the batch's root span).
	var hotAt, coldAt, batchAt [tsRing]atomic.Int64
	var hotSent, coldSent uint64
	var batches int64
	var sends, checks int64
	var wg sync.WaitGroup
	wg.Add(1)
	plog := p.tr.log()
	go func() {
		defer wg.Done()
		ns := make([]int, 0, viewsOnHi)
		var hseq, cseq uint64
		for b := uint32(0); now() < end; b++ {
			bu := in.bursts[int(b)%len(in.bursts)]
			ns = ns[:0]
			for i := 0; i < bu.n; i++ {
				ns = append(ns, in.sizes[(hseq+uint64(i))%sizeTable])
			}
			t0 := now()
			batchAt[b%tsRing].Store(t0)
			sends += 2
			lb, err := rig.hot.LoanBatch(ns)
			if err != nil {
				p.led.fail("views-burst LoanBatch: %v", err)
				rig.fac.Shutdown()
				return
			}
			t1 := now()
			for i := range ns {
				if w, ok := lb.Bytes(i); ok {
					in.fill(w, hseq+uint64(i), b, i, len(ns))
				} else {
					w := make([]byte, ns[i])
					in.fill(w, hseq+uint64(i), b, i, len(ns))
					lb.Fill(i, w)
				}
			}
			tc := now()
			for i := range ns {
				hotAt[(hseq+uint64(i))%tsRing].Store(tc)
			}
			if err := lb.CommitAll(); err != nil {
				p.led.fail("views-burst CommitAll: %v", err)
				lb.AbortAll()
				rig.fac.Shutdown()
				return
			}
			if p.tr.traced(uint64(b)) {
				t2 := now()
				plog.add("mpf.LoanBatch", "views.batch", uint64(b), t0, t1)
				plog.add("mpf.CommitAll", "views.batch", uint64(b), tc, t2)
			}
			hseq += uint64(len(ns))
			hotSent = hseq
			batches++
			if bu.cold {
				sends++
				if err := sendCold(rig.cold, &in, cseq, &coldAt); err != nil {
					p.led.fail("views-burst cold Loan: %v", err)
					rig.fac.Shutdown()
					return
				}
				cseq++
				coldSent = cseq
			}
		}
		if err := sendEnd(rig); err != nil {
			p.led.op("views-burst end", err)
			rig.fac.Shutdown()
		}
	}()

	clog := p.tr.log()
	scratch := make([]byte, 0, viewsMaxSize)
	var hotNext, coldNext uint64
	var waits, views int64
	hotDone, coldDone := false, false
	for !hotDone || !coldDone {
		var t0 int64
		if p.tr != nil {
			t0 = now()
		}
		vs, err := rig.sel.WaitViews(0)
		t1 := now()
		if err != nil {
			p.led.op("views-burst WaitViews", err)
			rig.fac.Shutdown()
			break
		}
		waits++
		views += int64(len(vs))
		var item uint64
		traced, lastOf := false, false
		for k, v := range vs {
			b := contents(v, scratch)
			seq := getSeq(b)
			if seq == endSeq {
				if v.Circuit() == rig.hotID {
					hotDone = true
				} else {
					coldDone = true
				}
				continue
			}
			cold := v.Circuit() == rig.coldID
			next, at := &hotNext, &hotAt
			if cold {
				next, at = &coldNext, &coldAt
			}
			checks++
			if seq != *next || len(b) != in.sizes[seq%sizeTable] ||
				!bytes.Equal(b[viewsHeader:], in.pat.body(seq, len(b)-viewsHeader)) {
				p.led.fail("views-burst: circuit %d got seq %d (%d bytes), want seq %d with its pattern",
					v.Circuit(), seq, len(b), *next)
			}
			*next = seq + 1
			m.deliver(t1, 1, len(b), at[seq%tsRing].Load(), cold)
			if !cold {
				batch := uint64(binary.LittleEndian.Uint32(b[8:]))
				if k == 0 {
					item, traced = batch, p.tr.traced(batch)
				}
				if traced && batch == item &&
					binary.LittleEndian.Uint16(b[12:])+1 == binary.LittleEndian.Uint16(b[14:]) {
					lastOf = true
				}
			}
		}
		mpf.ReleaseViews(vs)
		if traced {
			t3 := now()
			clog.add("mpf.WaitViews", "views.batch", item, t0, t1)
			clog.add("mpf.ReleaseViews", "views.batch", item, t1, t3)
			if lastOf {
				clog.add("views.batch", "", item, batchAt[item%tsRing].Load(), t3)
			}
		}
	}
	wg.Wait()
	p.led.count(sends + checks)
	out.delivered, out.items = int64(hotNext+coldNext), batches
	p.led.check(hotNext == hotSent && coldNext == coldSent,
		"views-burst: received %d hot and %d cold, sent %d and %d", hotNext, coldNext, hotSent, coldSent)
	out.layer["mpf.views_per_wait"] = float64(views) / float64(max(waits, 1))
	out.layer["views.waits"] = float64(waits)

	st := statsDelta(st0, rig.fac.Stats())
	locks1, cont1 := arena.LockStats()
	out.stats, out.arenaLocks, out.arenaContended = st, locks1-locks0, cont1-cont0
	out.heapBytes = heapAlloc() - heap0
	ledgerChecks(p.led, "views-burst", st, 0, free0, arena.FreeBlocks())
	return out
}

// sendCold sends cold message seq as one loan, stamping its commit.
func sendCold(sc *mpf.SendConn, in *viewsInputs, seq uint64, at *[tsRing]atomic.Int64) error {
	n := in.sizes[seq%sizeTable]
	ln, err := sc.Loan(n)
	if err != nil {
		return err
	}
	if w, ok := ln.Bytes(); ok {
		in.fill(w, seq, 0, 0, 1)
	} else {
		w := make([]byte, n)
		in.fill(w, seq, 0, 0, 1)
		ln.View().CopyFrom(w)
	}
	at[seq%tsRing].Store(now())
	return ln.Commit()
}

// sendEnd sends the end sentinel on both circuits, the hot one through
// the batched path.
func sendEnd(rig *viewsRig) error {
	lb, err := rig.hot.LoanBatch([]int{viewsHeader})
	if err != nil {
		return err
	}
	lb.Fill(0, binary.LittleEndian.AppendUint64(make([]byte, 0, viewsHeader), endSeq))
	if err := lb.CommitAll(); err != nil {
		return err
	}
	ln, err := rig.cold.Loan(viewsHeader)
	if err != nil {
		return err
	}
	ln.View().CopyFrom(binary.LittleEndian.AppendUint64(make([]byte, 0, viewsHeader), endSeq))
	return ln.Commit()
}
