package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Tests for dequeue-on-claim: a copying receive whose FCFS claim leaves
// the queue-head message needed by no one takes it off the queue and
// releases it after its copy, while shared messages — lagging
// BROADCAST readers, held pins — keep the pin path.

func seqPayload(i int) []byte {
	b := make([]byte, 8+i%200)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func payloadSeq(t *testing.T, b []byte) int {
	t.Helper()
	if len(b) < 8 {
		t.Fatalf("payload of %d bytes carries no sequence number", len(b))
	}
	return int(binary.LittleEndian.Uint64(b))
}

// TestTakeClaimSurvivesCircuitClose closes the circuit between a
// receive's claim and its release: the claimed message is off the
// queue, so the close neither orphans nor drops it, and the receiver's
// release returns its blocks.
func TestTakeClaimSurvivesCircuitClose(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "take-close")
	rid, _ := f.OpenReceive(1, "take-close", FCFS)
	want := seqPayload(7)
	if err := f.Send(0, sid, want); err != nil {
		t.Fatal(err)
	}
	c, err := f.waitClaim(1, rid, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !c.owned {
		t.Fatal("sole FCFS receiver's claim of the head message did not dequeue it")
	}
	dropped := f.Stats().MessagesDropped
	if err := f.CloseReceive(1, rid); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseSend(0, sid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LNVCInfo(rid); err == nil {
		t.Fatal("circuit survived its last close")
	}
	if got := f.Stats().MessagesDropped; got != dropped {
		t.Errorf("MessagesDropped went %d -> %d: the claimed message was counted as dropped", dropped, got)
	}
	if c.m.Orphan {
		t.Error("claimed message was orphaned by the close")
	}
	buf := make([]byte, 256)
	n := f.copyOut(c, buf)
	if n != len(want) || payloadSeq(t, buf[:n]) != 7 {
		t.Fatalf("copied %d bytes (seq %d), want %d bytes of seq 7", n, payloadSeq(t, buf[:n]), len(want))
	}
	if free := f.Arena().FreeBlocks(); free != f.Arena().NumBlocks() {
		t.Errorf("%d of %d blocks free after the release", free, f.Arena().NumBlocks())
	}
}

// TestTakeClaimCloseRace runs receives against closes of the same
// circuit: every sent message is either delivered or counted dropped,
// never both, and no block leaks.
func TestTakeClaimCloseRace(t *testing.T) {
	f := newFac(t)
	const rounds, perRound = 200, 4
	delivered := 0
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("take-race-%d", r%3)
		sid, err := f.OpenSend(0, name)
		if err != nil {
			t.Fatal(err)
		}
		rid, err := f.OpenReceive(1, name, FCFS)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perRound; i++ {
			if err := f.Send(0, sid, seqPayload(i)); err != nil {
				t.Fatal(err)
			}
		}
		got := make(chan int, 1)
		go func() {
			buf := make([]byte, 256)
			n := 0
			for {
				k, ok, err := f.TryReceive(1, rid, buf)
				if err != nil || !ok {
					got <- n
					return
				}
				if payloadSeq(t, buf[:k]) != n {
					t.Errorf("round %d: received seq %d, want %d", r, payloadSeq(t, buf[:k]), n)
				}
				n++
			}
		}()
		if err := f.CloseSend(0, sid); err != nil {
			t.Fatal(err)
		}
		// CloseReceive races the receiver; once it lands the receiver's
		// next TryReceive fails and it reports its count.
		_ = f.CloseReceive(1, rid)
		delivered += <-got
	}
	st := f.Stats()
	if total := uint64(delivered) + st.MessagesDropped; total != rounds*perRound {
		t.Errorf("delivered %d + dropped %d = %d, want %d sent", delivered, st.MessagesDropped, total, rounds*perRound)
	}
	if free := f.Arena().FreeBlocks(); free != f.Arena().NumBlocks() {
		t.Errorf("%d of %d blocks free after every circuit closed", free, f.Arena().NumBlocks())
	}
}

// TestTakeClaimMixedLaggingBroadcast runs a mixed FCFS+BROADCAST
// circuit whose BROADCAST reader lags behind and, at times, runs
// ahead: messages it has already read are dequeued by the FCFS claim,
// messages it still needs keep the pin path. Each class must see
// every message exactly once, in order.
func TestTakeClaimMixedLaggingBroadcast(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "take-mixed")
	fid, _ := f.OpenReceive(1, "take-mixed", FCFS)
	bid, _ := f.OpenReceive(2, "take-mixed", Broadcast)
	buf := make([]byte, 256)
	sent, fcfsNext, bcastNext := 0, 0, 0
	send := func(k int) {
		for i := 0; i < k; i++ {
			if err := f.Send(0, sid, seqPayload(sent)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	recv := func(pid int, id ID, next *int, k int) {
		for i := 0; i < k; i++ {
			n, err := f.Receive(pid, id, buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := payloadSeq(t, buf[:n]); got != *next {
				t.Fatalf("pid %d received seq %d, want %d", pid, got, *next)
			}
			*next++
		}
	}
	send(10)
	recv(2, bid, &bcastNext, 4) // the broadcast reader runs ahead by 4
	recv(1, fid, &fcfsNext, 10) // 4 dequeued on claim, 6 pinned
	send(5)
	recv(2, bid, &bcastNext, 11)
	recv(1, fid, &fcfsNext, 5)
	for _, id := range []ID{fid, bid} {
		pid := 1
		if id == bid {
			pid = 2
		}
		if ok, err := f.CheckReceive(pid, id); err != nil || ok {
			t.Fatalf("pid %d has a message left (%v, %v)", pid, ok, err)
		}
	}
	info, err := f.LNVCInfo(sid)
	if err != nil {
		t.Fatal(err)
	}
	if info.QueuedMsgs != 0 {
		t.Errorf("%d messages still queued after both classes consumed all %d", info.QueuedMsgs, sent)
	}
	if free := f.Arena().FreeBlocks(); free != f.Arena().NumBlocks() {
		t.Errorf("%d of %d blocks free after the drain", free, f.Arena().NumBlocks())
	}
}

// TestTakeClaimMixedConcurrent runs two FCFS receivers and a slow
// BROADCAST receiver concurrently on one circuit: every message goes to
// exactly one FCFS receiver and, in order, to the BROADCAST receiver.
func TestTakeClaimMixedConcurrent(t *testing.T) {
	f := newFac(t)
	const msgs = 2000
	sid, _ := f.OpenSend(0, "take-conc")
	f1, _ := f.OpenReceive(1, "take-conc", FCFS)
	f2, _ := f.OpenReceive(2, "take-conc", FCFS)
	bid, _ := f.OpenReceive(3, "take-conc", Broadcast)
	var mu sync.Mutex
	seen := make([]int, msgs)
	var wg sync.WaitGroup
	for _, r := range []struct {
		pid int
		id  ID
	}{{1, f1}, {2, f2}} {
		wg.Add(1)
		go func(pid int, id ID) {
			defer wg.Done()
			buf := make([]byte, 256)
			last := -1
			for {
				n, err := f.Receive(pid, id, buf)
				if err != nil {
					t.Error(err)
					return
				}
				if n == 0 {
					return // end marker
				}
				seq := payloadSeq(t, buf[:n])
				if seq <= last {
					t.Errorf("pid %d received seq %d after %d", pid, seq, last)
				}
				last = seq
				mu.Lock()
				seen[seq]++
				mu.Unlock()
			}
		}(r.pid, r.id)
	}
	bcastDone := make(chan int)
	go func() {
		buf := make([]byte, 256)
		next := 0
		for next < msgs {
			n, err := f.Receive(3, bid, buf)
			if err != nil {
				t.Error(err)
				break
			}
			if got := payloadSeq(t, buf[:n]); got != next {
				t.Errorf("broadcast received seq %d, want %d", got, next)
			}
			next++
			if next%100 == 0 {
				// Fall behind the FCFS receivers now and then, so
				// their claims meet messages this reader still needs.
				time.Sleep(time.Millisecond)
			}
		}
		bcastDone <- next
	}()
	for i := 0; i < msgs; i++ {
		if err := f.Send(0, sid, seqPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := <-bcastDone; got != msgs {
		t.Fatalf("broadcast receiver saw %d of %d messages", got, msgs)
	}
	// One empty end marker per FCFS receiver; the broadcast receiver
	// leaves first so the markers are not retained for it.
	if err := f.CloseReceive(3, bid); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := f.Send(0, sid, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("FCFS delivered seq %d %d times, want exactly once", seq, n)
		}
	}
	if free := f.Arena().FreeBlocks(); free != f.Arena().NumBlocks() {
		t.Errorf("%d of %d blocks free after the drain", free, f.Arena().NumBlocks())
	}
}

// TestTakeClaimCreditLedger runs a credited circuit through the
// dequeue path — concurrent sends stalling on a small budget, and a
// claim whose circuit dies and is recycled before the release — and
// requires the ledger to end exact: CreditsHeld 0, and a recycled
// descriptor's fresh ledger untouched by the stale release.
func TestTakeClaimCreditLedger(t *testing.T) {
	f := creditFacility(t, 4, BlockUntilFree)
	sid, _ := f.OpenSend(0, "take-credit")
	rid, _ := f.OpenReceive(1, "take-credit", FCFS)
	const msgs = 500
	done := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := f.Send(0, sid, seqPayload(i%40)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	buf := make([]byte, 256)
	for i := 0; i < msgs; i++ {
		if _, err := f.Receive(1, rid, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.CreditsHeld != 0 {
		t.Errorf("CreditsHeld = %d after the drain, want 0", st.CreditsHeld)
	}
	if info := creditInfo(t, f, rid); info.CreditUsed != 0 {
		t.Errorf("circuit CreditUsed = %d after the drain, want 0", info.CreditUsed)
	}

	// A claim outlives its circuit, whose descriptor is recycled for a
	// new circuit with a debit of its own before the stale release.
	if err := f.Send(0, sid, seqPayload(1)); err != nil {
		t.Fatal(err)
	}
	c, err := f.waitClaim(1, rid, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !c.owned {
		t.Fatal("claim did not dequeue the sole receiver's head message")
	}
	_ = f.CloseReceive(1, rid)
	_ = f.CloseSend(0, sid)
	sid2, _ := f.OpenSend(0, "take-credit")
	rid2, _ := f.OpenReceive(1, "take-credit", FCFS)
	if err := f.Send(0, sid2, seqPayload(2)); err != nil {
		t.Fatal(err)
	}
	f.copyOut(c, buf)
	if info := creditInfo(t, f, rid2); info.CreditUsed != 1 {
		t.Errorf("recycled circuit CreditUsed = %d after the stale release, want its own 1", info.CreditUsed)
	}
	if _, err := f.Receive(1, rid2, buf); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.CreditsHeld != 0 {
		t.Errorf("CreditsHeld = %d at quiescence, want 0", st.CreditsHeld)
	}
	if free := f.Arena().FreeBlocks(); free != f.Arena().NumBlocks() {
		t.Errorf("%d of %d blocks free at quiescence", free, f.Arena().NumBlocks())
	}
}
