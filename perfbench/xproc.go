package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/mpf"
)

// childEnv flips a re-executed perfbench binary into the cross-process
// worker: attach to the parent's segment, serve the bridge protocol
// (verifying every payload checksum), exit.
const childEnv = "PERFBENCH_XPROC_CHILD"

// xprocChild is the worker's main; its exit code reports the outcome.
func xprocChild() int {
	cl, err := mpf.AttachProc()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: attach: %v\n", err)
		return 1
	}
	if err := cl.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 1
	}
	if err := cl.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: unmap: %v\n", err)
		return 1
	}
	return 0
}

// xprocSizes is xproc-bridge's generated size cycle: log-uniform over
// 64 B–16 KiB.
func xprocSizes(seed int64) []int {
	return logUniform(rngFor(seed, "xproc-bridge"), 64, 16<<10, sizeTable)
}

// xprocBlockSize matches the cross-process benchmark leg of mpfbench:
// 512-byte blocks, 512 per process.
const xprocBlockSize = 512

type xprocRig struct {
	srv   *mpf.ProcServer
	group *proc.ExecGroup
	// attach is the time from Spawn until the child held its slot.
	attach time.Duration
}

// setupXProc serves a memfd-backed facility, spawns one child from
// this binary and waits until the child has claimed its slot — the
// point from which the first message can move.
func setupXProc() (*xprocRig, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	srv, err := mpf.ServeProc(mpf.ServeConfig{
		Children: 1,
		RingCap:  64,
		Options:  []mpf.Option{mpf.WithBlockSize(xprocBlockSize), mpf.WithBlocksPerProcess(512)},
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	g, err := srv.Spawn(1, bin, nil, []string{childEnv + "=1"})
	if err != nil {
		srv.Close()
		return nil, err
	}
	rig := &xprocRig{srv: srv, group: g}
	deadline := t0.Add(30 * time.Second)
	for {
		st, _ := srv.Table().SlotStateGen(0)
		if st == core.SlotAttached {
			break
		}
		if st == core.SlotDead || time.Now().After(deadline) {
			rig.kill()
			return nil, fmt.Errorf("child never claimed its slot (state %d)", st)
		}
		runtime.Gosched()
	}
	rig.attach = time.Since(t0)
	return rig, nil
}

// finish tells the child to exit, waits for it and unmaps the segment;
// an error means the child or the unmap failed.
func (r *xprocRig) finish() error {
	if err := r.srv.FinishSlot(0); err != nil {
		r.kill()
		return err
	}
	werr := r.group.Wait(10 * time.Second)
	return errors.Join(werr, r.srv.Close())
}

// kill stops the child, waits until it has exited and unmaps.
func (r *xprocRig) kill() {
	r.group.Kill()
	select {
	case <-r.group.Child(0).Done():
	case <-time.After(10 * time.Second):
	}
	r.srv.Close()
}

// runXProc drives the cross-process bridge: one child process, the
// parent alternating one-message BridgeDown and BridgeUp round trips
// of the generated sizes. The child checks every down payload's
// checksum and BridgeUp checks every payload the child filled.
func runXProc(p params) *outcome {
	sizes := xprocSizes(p.seed)
	out := &outcome{layer: map[string]float64{}}

	var attach []float64
	rig, setupS, ok := setUp(p, "xproc-bridge", setupXProc, func(r *xprocRig) {
		attach = append(attach, r.attach.Seconds()*1e3)
		p.led.op("xproc-bridge teardown", r.finish())
	})
	if !ok {
		return nil
	}
	out.setupS = setupS
	attach = append(attach, rig.attach.Seconds()*1e3)
	out.layer["proc.spawn_attach_ms"] = median(attach)
	fac := rig.srv.Facility()
	arena := fac.Core().Arena()
	free0 := arena.FreeBlocks()
	st0 := fac.Stats()
	locks0, cont0 := arena.LockStats()
	ring0 := rig.srv.RingWaitStats()
	heap0 := heapAlloc()

	m, end := phaseClock(p)
	out.m = m
	// Killing the child fails the bridge call waiting on it.
	defer watchStall(p, "xproc-bridge", end, rig.group.Kill).Stop()
	log := p.tr.log()
	var ops uint64
	for ; now() < end; ops++ {
		n := sizes[ops%sizeTable]
		name, call := "mpf.BridgeDown", rig.srv.BridgeDown
		if ops%2 == 1 {
			name, call = "mpf.BridgeUp", rig.srv.BridgeUp
		}
		t0 := now()
		done, err := call(0, 1, n)
		t1 := now()
		if err == nil && done != 1 {
			err = fmt.Errorf("%d of 1 round trips done", done)
		}
		if err != nil {
			p.led.count(int64(ops))
			p.led.op("xproc-bridge "+name, err)
			rig.kill()
			return nil
		}
		m.deliver(t1, 1, n, t0, false)
		if p.tr.traced(ops) {
			log.add(name, "xproc.roundtrip", ops, t0, t1)
			log.add("xproc.roundtrip", "", ops, t0, t1)
		}
	}
	p.led.count(int64(ops))
	out.delivered, out.items = int64(ops), int64(ops)

	st := statsDelta(st0, fac.Stats())
	ring1 := rig.srv.RingWaitStats()
	locks1, cont1 := arena.LockStats()
	out.stats, out.arenaLocks, out.arenaContended = st, locks1-locks0, cont1-cont0
	out.heapBytes = heapAlloc() - heap0
	msgs := float64(max(ops, 1))
	out.layer["shm.ring_polls_per_msg"] = float64(ring1.Polls-ring0.Polls) / msgs
	out.layer["shm.futex_sleeps_per_msg"] = float64(ring1.Sleeps-ring0.Sleeps) / msgs
	out.layer["shm.futex_wakes_per_msg"] = float64(ring1.Wakes-ring0.Wakes) / msgs
	ledgerChecks(p.led, "xproc-bridge", st, 0, free0, arena.FreeBlocks())
	// The child exits nonzero if any payload it verified failed its
	// checksum; the unmap must be clean.
	err := rig.finish()
	p.led.check(err == nil, "xproc-bridge: child or segment teardown: %v", err)
	return out
}
