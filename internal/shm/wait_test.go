package shm

import (
	"sync"
	"testing"
	"time"
)

func TestAllocWaitMultipleWaitersAllServed(t *testing.T) {
	// More waiters than blocks: each FreeChain must eventually let one
	// more waiter through (broadcast wake + retry), with no waiter lost.
	const nBlocks, nWaiters = 2, 6
	a := mustArena(t, 16, nBlocks)
	held := make([]int32, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		off, err := allocBlock(a, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, off)
	}
	got := make(chan int32, nWaiters)
	var wg sync.WaitGroup
	for i := 0; i < nWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off, err := allocBlock(a, true, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got <- off
		}()
	}
	// Free the 2 held blocks, then bounce blocks from satisfied waiters
	// back in so the next waiter proceeds.
	for _, off := range held {
		a.FreeChain(off)
	}
	for served := 0; served < nWaiters; served++ {
		select {
		case off := <-got:
			if served < nWaiters-nBlocks {
				a.FreeChain(off) // recycle so the next waiter proceeds
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d waiters served", served, nWaiters)
		}
	}
	wg.Wait()
}

func TestAllocWaitFastPathNoBlock(t *testing.T) {
	a := mustArena(t, 16, 4)
	start := time.Now()
	off, err := allocBlock(a, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("waiting AllocPayload blocked despite free blocks")
	}
	a.FreeChain(off)
	st := a.Stats()
	if st.AllocBlocks != 0 {
		t.Fatalf("AllocBlocks = %d, want 0", st.AllocBlocks)
	}
}
