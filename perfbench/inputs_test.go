package main

import (
	"testing"

	"repro/internal/shm"
)

// TestViewsBurstsAreBursty checks the generated views-burst stream
// against the properties its parameters were chosen for: burst lengths
// with a squared coefficient of variation above 1, on-state bursts
// that reach past the auto-harvest maximum, and no burst whose credit
// demand exceeds the circuit's credit.
func TestViewsBurstsAreBursty(t *testing.T) {
	a, err := shm.New(shm.Config{BlockSize: viewsBlockSize, NumBlocks: 64, Spans: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.BlocksFor(viewsMaxSize); got != viewsMaxBlocks {
		t.Fatalf("a %d-byte payload takes %d blocks, viewsMaxBlocks is %d", viewsMaxSize, got, viewsMaxBlocks)
	}
	for seed := int64(1); seed <= 5; seed++ {
		in := viewsGen(seed)
		if mean, scv := in.burstiness(); scv <= 1 {
			t.Errorf("seed %d: burst lengths mean %.4g, SCV %.4g, want SCV > 1", seed, mean, scv)
		}
		var seq, longest, overHarvest int
		for _, b := range in.bursts {
			demand := 0
			for i := 0; i < b.n; i++ {
				demand += a.BlocksFor(in.sizes[(seq+i)%sizeTable])
			}
			seq += b.n
			longest = max(longest, demand)
			if b.n > viewsHarvestHi {
				overHarvest++
			}
		}
		if longest > viewsCredit {
			t.Errorf("seed %d: a burst needs %d credit blocks, the credit is %d", seed, longest, viewsCredit)
		}
		if overHarvest == 0 {
			t.Errorf("seed %d: no burst is longer than the auto-harvest maximum %d", seed, viewsHarvestHi)
		}
	}
}
