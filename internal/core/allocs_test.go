package core

import "testing"

// TestSendReceiveZeroAllocs guards the paper copy plane's per-message
// fixed cost: on a default facility a Send and the Receive that drains
// it allocate nothing on the heap — the payload allocator builds no
// result slices for a single payload, an exclusively claimed message is
// released without touching the heap, and on a circuit shared with a
// BROADCAST receiver the reclaim scan keeps its victims on the stack.
func TestSendReceiveZeroAllocs(t *testing.T) {
	f, err := Init(Config{MaxProcesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	rid, err := f.OpenReceive(1, "allocs", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := f.OpenSend(0, "allocs")
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{8, 1 << 10, 16 << 10} {
		in := make([]byte, size)
		out := make([]byte, size)
		var failed error
		allocs := testing.AllocsPerRun(200, func() {
			if err := f.Send(0, sid, in); err != nil {
				failed = err
				return
			}
			if n, err := f.Receive(1, rid, out); err != nil || n != size {
				failed = err
			}
		})
		if failed != nil {
			t.Fatalf("%d B: %v", size, failed)
		}
		if allocs != 0 {
			t.Errorf("%d B: Send+Receive allocated %.1f times per message, want 0", size, allocs)
		}
	}
	// A BROADCAST receiver on the same circuit makes the FCFS claim
	// shared, so messages take the pin path and the reclaim scan.
	bid, err := f.OpenReceive(0, "allocs", Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	in, out := make([]byte, 1<<10), make([]byte, 1<<10)
	var failed error
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.Send(0, sid, in); err != nil {
			failed = err
			return
		}
		if _, err := f.Receive(1, rid, out); err != nil {
			failed = err
			return
		}
		if _, err := f.Receive(0, bid, out); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatalf("mixed circuit: %v", failed)
	}
	if allocs != 0 {
		t.Errorf("mixed circuit: Send+Receive+Receive allocated %.1f times per message, want 0", allocs)
	}
	if free := f.Arena().FreeBlocks(); free != f.Arena().NumBlocks() {
		t.Errorf("%d of %d blocks free after the drain", free, f.Arena().NumBlocks())
	}
}
