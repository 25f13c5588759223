package shm

import (
	"errors"
	"testing"
	"time"
)

// blockPayloads returns the payload lengths that fill exactly ns[i]
// classic blocks each: an n-block chain holds n*PayloadSize() bytes.
func blockPayloads(a *Arena, ns ...int) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n * a.PayloadSize()
	}
	return out
}

func TestAllocChainsOneTransaction(t *testing.T) {
	a, err := New(Config{BlockSize: 16, NumBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	acqBefore, _ := a.LockStats()
	heads, tails, err := a.AllocPayloads(blockPayloads(a, 3, 1, 5), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acqAfter, _ := a.LockStats(); acqAfter-acqBefore != 1 {
		t.Errorf("AllocPayloads took %d lock acquisitions, want 1", acqAfter-acqBefore)
	}
	if len(heads) != 3 {
		t.Fatalf("%d heads, want 3", len(heads))
	}
	for i, want := range []int{3, 1, 5} {
		if got := chainLen(a, heads[i]); got != want {
			t.Errorf("chain %d has %d blocks, want %d", i, got, want)
		}
		end := heads[i]
		for next := a.Next(end); next != NilOffset; next = a.Next(end) {
			end = next
		}
		if tails[i] != end {
			t.Errorf("chain %d tail = %d, want chain end %d", i, tails[i], end)
		}
	}
	if free := a.FreeBlocks(); free != 32-9 {
		t.Errorf("%d blocks free, want %d", free, 32-9)
	}
	for _, h := range heads {
		a.FreeChain(h)
	}
	if free := a.FreeBlocks(); free != 32 {
		t.Errorf("%d blocks free after FreeChain, want 32", free)
	}
	if err := a.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocChainsAllOrNothing(t *testing.T) {
	a, err := New(Config{BlockSize: 16, NumBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Demand exceeding the free count (but not the region) fails without
	// allocating anything.
	if _, _, err := a.AllocPayloads(blockPayloads(a, 5, 4), false, nil); !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("err = %v, want ErrOutOfBlocks", err)
	}
	if free := a.FreeBlocks(); free != 8 {
		t.Errorf("failed batch leaked: %d blocks free, want 8", free)
	}
	// Demand exceeding the whole region fails even with wait set —
	// waiting could never succeed.
	if _, _, err := a.AllocPayloads(blockPayloads(a, 9), true, nil); !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("oversized wait: err = %v, want ErrOutOfBlocks", err)
	}
	// Zero-length batch is a no-op.
	heads, tails, err := a.AllocPayloads(nil, false, nil)
	if err != nil || heads != nil || tails != nil {
		t.Errorf("empty batch: %v, %v", heads, err)
	}
	// A negative payload length is rejected, and the batch with it.
	if _, _, err := a.AllocPayloads([]int{2, -1}, false, nil); err == nil {
		t.Error("payload of -1 bytes accepted")
	}
	if free := a.FreeBlocks(); free != 8 {
		t.Errorf("rejected batch leaked: %d blocks free, want 8", free)
	}
}

func TestAllocChainsWaitsForFrees(t *testing.T) {
	a, err := New(Config{BlockSize: 16, NumBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	held, _, err := a.AllocPayloads(blockPayloads(a, 3), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []int32, 1)
	go func() {
		heads, _, err := a.AllocPayloads(blockPayloads(a, 3), true, nil)
		if err != nil {
			done <- nil
			return
		}
		done <- heads
	}()
	select {
	case <-done:
		t.Fatal("AllocPayloads returned before blocks were freed")
	case <-time.After(30 * time.Millisecond):
	}
	a.FreeChain(held[0])
	select {
	case heads := <-done:
		if heads == nil {
			t.Fatal("waiting AllocPayloads failed")
		}
		if got := chainLen(a, heads[0]); got != 3 {
			t.Errorf("chain has %d blocks, want 3", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AllocPayloads did not wake after FreeChain")
	}
}

func TestAllocChainsStopAborts(t *testing.T) {
	a, err := New(Config{BlockSize: 16, NumBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.AllocPayloads(blockPayloads(a, 2), false, nil); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := a.AllocPayloads(blockPayloads(a, 1), true, stop)
		done <- err
	}()
	close(stop)
	select {
	case err := <-done:
		if !errors.Is(err, ErrOutOfBlocks) {
			t.Errorf("err = %v, want ErrOutOfBlocks", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not abort the wait")
	}
}
