package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/gauss"
	"repro/internal/msg"
	"repro/internal/shm"
	"repro/internal/spinlock"
	"repro/internal/stats"
)

// The ladders time each lower layer on its own, outside the facility,
// on the traced workload's generated inputs: msg message build,
// extract and release on a private arena, shm allocation, ring and
// notify word, the spin locks, and the sequential Gauss-Jordan solve.
// Operations cheaper than the clock are timed in chunks of ladderChunk.

const ladderChunk = 64

// chunkNs times f over one chunk and returns nanoseconds per call.
func chunkNs(k int, f func(i int)) float64 {
	t0 := now()
	for i := 0; i < k; i++ {
		f(i)
	}
	return float64(now()-t0) / float64(k)
}

// ladderArena is a private spans arena with room for n of the largest
// messages.
func ladderArena(blockSize, maxPayload, n int) (*shm.Arena, error) {
	blocks := n * (maxPayload/(blockSize-4) + 2)
	return shm.New(shm.Config{BlockSize: blockSize, NumBlocks: blocks, Spans: true})
}

type msgLadder struct {
	buildNs, extractNs, releaseNs, copyNsPerKiB float64
}

// ladderMsg replays sizes, in the workload's order, through msg.Pool
// Build, Extract and Release, chunk by chunk. A second pass times each
// Build on its own and fits its cost against size: the slope is the
// per-KiB copy cost.
func ladderMsg(sizes []int, blockSize int) (msgLadder, error) {
	maxN := slices.Max(sizes)
	a, err := ladderArena(blockSize, maxN, ladderChunk)
	if err != nil {
		return msgLadder{}, err
	}
	pool := msg.NewPool(a, ladderChunk)
	buf := make([]byte, maxN)
	ms := make([]*msg.Message, ladderChunk)
	var build, extract, release []float64
	for lo := 0; lo+ladderChunk <= len(sizes); lo += ladderChunk {
		var berr error
		build = append(build, chunkNs(ladderChunk, func(i int) {
			m, err := pool.Build(0, buf[:sizes[lo+i]], false, nil)
			if err != nil {
				berr = err
			}
			ms[i] = m
		}))
		if berr != nil {
			return msgLadder{}, fmt.Errorf("msg ladder Build: %w", berr)
		}
		extract = append(extract, chunkNs(ladderChunk, func(i int) { pool.Extract(ms[i], buf) }))
		release = append(release, chunkNs(ladderChunk, func(i int) { pool.Release(ms[i]) }))
	}
	xs, ys := make([]float64, len(sizes)), make([]float64, len(sizes))
	for i, n := range sizes {
		t0 := now()
		m, err := pool.Build(0, buf[:n], false, nil)
		ys[i] = float64(now() - t0)
		if err != nil {
			return msgLadder{}, fmt.Errorf("msg ladder Build: %w", err)
		}
		pool.Release(m)
		xs[i] = float64(n)
	}
	return msgLadder{
		buildNs:      stats.Mean(build),
		extractNs:    stats.Mean(extract),
		releaseNs:    stats.Mean(release),
		copyNsPerKiB: slope(xs, ys) * 1024,
	}, nil
}

// ladderBatch replays views-burst's burst sizes through
// msg.Pool.BuildLoanBatch and ReleaseBatch; it returns ns per batch.
func ladderBatch(in viewsInputs) (buildNs, releaseNs float64, err error) {
	a, err := ladderArena(viewsBlockSize, viewsMaxSize, viewsOnHi)
	if err != nil {
		return 0, 0, err
	}
	pool := msg.NewPool(a, ladderChunk)
	var seq int
	var build, release []float64
	ns := make([]int, 0, viewsOnHi)
	for _, bu := range in.bursts {
		ns = ns[:0]
		for i := 0; i < bu.n; i++ {
			ns = append(ns, in.sizes[(seq+i)%sizeTable])
		}
		seq += bu.n
		t0 := now()
		ms, err := pool.BuildLoanBatch(0, ns, false, nil)
		t1 := now()
		if err != nil {
			return 0, 0, fmt.Errorf("msg ladder BuildLoanBatch: %w", err)
		}
		pool.ReleaseBatch(ms)
		t2 := now()
		build, release = append(build, float64(t1-t0)), append(release, float64(t2-t1))
	}
	return stats.Mean(build), stats.Mean(release), nil
}

// ladderAlloc replays sizes through shm.Arena AllocPayload and
// FreeChain.
func ladderAlloc(sizes []int, blockSize int) (allocNs, freeNs float64, err error) {
	a, err := ladderArena(blockSize, slices.Max(sizes), ladderChunk)
	if err != nil {
		return 0, 0, err
	}
	heads := make([]int32, ladderChunk)
	var alloc, free []float64
	for lo := 0; lo+ladderChunk <= len(sizes); lo += ladderChunk {
		var aerr error
		alloc = append(alloc, chunkNs(ladderChunk, func(i int) {
			h, _, err := a.AllocPayload(sizes[lo+i], false, nil)
			if err != nil {
				aerr = err
			}
			heads[i] = h
		}))
		if aerr != nil {
			return 0, 0, fmt.Errorf("shm ladder AllocPayload: %w", aerr)
		}
		free = append(free, chunkNs(ladderChunk, func(i int) { a.FreeChain(heads[i]) }))
	}
	return stats.Mean(alloc), stats.Mean(free), nil
}

// ladderRing times one XRing push and pop on one goroutine, in a
// memfd segment.
func ladderRing(ops int) (float64, error) {
	seg, err := shm.NewSharedSegment("perfbench-ring", shm.RingBytes(64))
	if err != nil {
		return 0, err
	}
	defer seg.Close()
	r, err := shm.InitRing(seg, 0, 64)
	if err != nil {
		return 0, err
	}
	var rerr error
	ns := chunkNs(ops, func(i int) {
		if ok, err := r.TryPush(shm.Record{Off: int64(i), Len: 1}); !ok || err != nil {
			rerr = fmt.Errorf("push %d: ok=%v err=%v", i, ok, err)
		}
		if rec, ok, err := r.TryPop(); !ok || err != nil || rec.Off != int64(i) {
			rerr = fmt.Errorf("pop %d: ok=%v err=%v", i, ok, err)
		}
	})
	return ns, rerr
}

// ladderNotify times NotifyWord.Post on one goroutine until Wait
// returns on another, in microseconds: the waiter announces each round
// on a second word, the poster stamps the clock and posts, and the
// waiter reads the clock as its Wait returns.
func ladderNotify(rounds int) (float64, error) {
	seg, err := shm.NewSharedSegment("perfbench-notify", 2*shm.NotifyBytes)
	if err != nil {
		return 0, err
	}
	defer seg.Close()
	ping, pong := shm.NotifyAt(seg, 0), shm.NotifyAt(seg, shm.NotifyBytes)
	deadline := time.Now().Add(30 * time.Second)
	var postedAt atomic.Int64
	lat := make([]float64, 0, rounds)
	var wg sync.WaitGroup
	wg.Add(1)
	var werr error
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			old := ping.Load()
			pong.Post()
			if _, ok := ping.Wait(old, deadline); !ok {
				werr = errors.New("notify ladder: Wait timed out")
				return
			}
			lat = append(lat, float64(now()-postedAt.Load())/1e3)
		}
	}()
	var seen uint32
	for i := 0; i < rounds; i++ {
		v, ok := pong.Wait(seen, deadline)
		if !ok {
			break
		}
		seen = v
		postedAt.Store(now())
		ping.Post()
	}
	wg.Wait()
	if werr != nil {
		return 0, werr
	}
	return median(lat), nil
}

// ladderSpin times uncontended TAS Lock+Unlock and RW RLock+RUnlock.
func ladderSpin(ops int) (tasNs, rwNs float64) {
	var tas spinlock.TAS
	var rw spinlock.RW
	tasNs = chunkNs(ops, func(int) { tas.Lock(); tas.Unlock() })
	rwNs = chunkNs(ops, func(int) { rw.RLock(); rw.RUnlock() })
	return tasNs, rwNs
}

// ladderGaussSeq times gauss.SolveSequential on the workload's
// systems and returns the median seconds per solve.
func ladderGaussSeq(systems []system, solves int) (float64, error) {
	var ts []float64
	for i := 0; i < solves; i++ {
		s := systems[i%len(systems)]
		t0 := now()
		if _, err := gauss.SolveSequential(s.a, s.b); err != nil {
			return 0, err
		}
		ts = append(ts, float64(now()-t0)/1e9)
	}
	return median(ts), nil
}

// slope is the least-squares slope of ys against xs.
func slope(xs, ys []float64) float64 {
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
