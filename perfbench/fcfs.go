package main

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/mpf"
)

// fcfsWindow is the number of messages the fcfs-copy sender keeps in
// flight: the closed loop's depth.
const fcfsWindow = 16

// fcfsSizes is fcfs-copy's generated size cycle: log-uniform over
// 8 B–16 KiB.
func fcfsSizes(seed int64) []int { return logUniform(rngFor(seed, "fcfs-copy"), 8, 16<<10, sizeTable) }

type fcfsRig struct {
	fac  *mpf.Facility
	send *mpf.SendConn
	recv *mpf.RecvConn
}

func setupFCFS() (*fcfsRig, error) {
	fac, err := mpf.New()
	if err != nil {
		return nil, err
	}
	p0, _ := fac.Process(0)
	p1, _ := fac.Process(1)
	recv, err := p1.OpenReceive("fcfs", mpf.FCFS)
	if err != nil {
		fac.Shutdown()
		return nil, err
	}
	send, err := p0.OpenSend("fcfs")
	if err != nil {
		fac.Shutdown()
		return nil, err
	}
	return &fcfsRig{fac: fac, send: send, recv: recv}, nil
}

// runFCFS is the paper's fcfs benchmark: one sender and one FCFS
// receiver on one circuit of a default facility, Send and Receive
// (two structural copies per message), a fixed window in flight.
func runFCFS(p params) *outcome {
	r := rngFor(p.seed, "fcfs-copy")
	sizes := fcfsSizes(p.seed)
	pat := newPattern(r)
	out := &outcome{layer: map[string]float64{}}

	rig, setupS, ok := setUp(p, "fcfs-copy", setupFCFS, func(r *fcfsRig) { r.fac.Shutdown() })
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
	defer watchStall(p, "fcfs-copy", end, rig.fac.Shutdown).Stop()
	var sentAt [tsRing]atomic.Int64
	window := make(chan struct{}, fcfsWindow)
	// quit stops the sender when the receiver fails; a failed Send
	// shuts the facility down, which fails the receiver's Receive.
	quit := make(chan struct{})
	var sent uint64
	var sends, checks int64
	var wg sync.WaitGroup
	wg.Add(1)
	plog := p.tr.log()
	go func() {
		defer wg.Done()
		buf := make([]byte, 16<<10)
		for seq := uint64(0); now() < end; seq++ {
			n := sizes[seq%sizeTable]
			putSeq(buf, seq)
			copy(buf[8:n], pat.body(seq, n-8))
			select {
			case window <- struct{}{}:
			case <-quit:
				return
			}
			t0 := now()
			sentAt[seq%tsRing].Store(t0)
			sends++
			if err := rig.send.Send(buf[:n]); err != nil {
				p.led.fail("fcfs-copy Send: %v", err)
				rig.fac.Shutdown()
				return
			}
			if p.tr.traced(seq) {
				plog.add("mpf.Send", "fcfs.message", seq, t0, now())
			}
			sent++
		}
		putSeq(buf, endSeq)
		p.led.op("fcfs-copy Send end", rig.send.Send(buf[:8]))
	}()

	clog := p.tr.log()
	buf := make([]byte, 16<<10)
	var next uint64
	for {
		var t0 int64
		if p.tr != nil {
			t0 = now()
		}
		n, err := rig.recv.Receive(buf)
		t1 := now()
		if err != nil {
			p.led.op("fcfs-copy Receive", err)
			close(quit)
			break
		}
		seq := getSeq(buf)
		if seq == endSeq {
			break
		}
		<-window
		want := sizes[seq%sizeTable]
		checks++
		if seq != next || n != want || !bytes.Equal(buf[8:n], pat.body(seq, n-8)) {
			p.led.fail("fcfs-copy: got seq %d (%d bytes), want seq %d (%d bytes) with its pattern", seq, n, next, want)
		}
		next = seq + 1
		ts := sentAt[seq%tsRing].Load()
		m.deliver(t1, 1, n, ts, false)
		if p.tr.traced(seq) {
			clog.add("mpf.Receive", "fcfs.message", seq, t0, t1)
			clog.add("fcfs.message", "", seq, ts, t1)
		}
	}
	wg.Wait()
	p.led.count(sends + checks)
	out.delivered, out.items = int64(next), int64(next)
	p.led.check(next == sent, "fcfs-copy: received %d messages, sent %d", next, sent)

	st := statsDelta(st0, rig.fac.Stats())
	locks1, cont1 := arena.LockStats()
	out.stats, out.arenaLocks, out.arenaContended = st, locks1-locks0, cont1-cont0
	out.heapBytes = heapAlloc() - heap0
	// Every message, the end sentinel included, is copied in by Send
	// and out by Receive.
	ledgerChecks(p.led, "fcfs-copy", st, 2*(sent+1), free0, arena.FreeBlocks())
	return out
}
