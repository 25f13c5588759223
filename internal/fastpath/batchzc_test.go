package fastpath

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// The ring's batched zero-copy ends: ReserveBatch carves N records
// under one reservation published by a single CommitReserve cursor
// store; PeekBatch exposes N records in place retired by a single
// ConsumeBatch store.

func TestReserveBatchCommitRoundtrip(t *testing.T) {
	r, err := NewRing(512)
	if err != nil {
		t.Fatal(err)
	}
	ns := []int{8, 16, 24}
	segs, err := r.ReserveBatch(ns)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(ns) {
		t.Fatalf("reserved %d records, want %d", len(segs), len(ns))
	}
	for i, seg := range segs {
		if len(seg) != ns[i] {
			t.Fatalf("record %d is %d bytes, want %d", i, len(seg), ns[i])
		}
		for j := range seg {
			seg[j] = byte(i)
		}
	}
	// Nothing visible before the commit.
	if _, ok, _ := r.TryRecv(make([]byte, 64)); ok {
		t.Fatal("uncommitted batch reservation visible")
	}
	r.CommitReserve()
	buf := make([]byte, 64)
	for i := range ns {
		n, ok, err := r.TryRecv(buf)
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if n != ns[i] || buf[0] != byte(i) || buf[n-1] != byte(i) {
			t.Fatalf("record %d corrupted: n=%d first=%d", i, n, buf[0])
		}
	}
}

func TestReserveBatchAbortAndPartialFit(t *testing.T) {
	r, _ := NewRing(128) // 128-byte buffer: a few records fit
	segs, err := r.ReserveBatch([]int{32, 32, 32, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || len(segs) == 5 {
		t.Fatalf("expected a strict prefix to fit, got %d of 5", len(segs))
	}
	r.AbortReserve()
	if _, ok, _ := r.TryRecv(make([]byte, 64)); ok {
		t.Fatal("aborted batch became visible")
	}
	// The full capacity is reusable after the abort.
	if ok, err := r.TrySend(make([]byte, 64)); err != nil || !ok {
		t.Fatalf("TrySend after batch abort: ok=%v err=%v", ok, err)
	}

	// A record that can never fit stops the batch with ErrTooBig, the
	// reserved prefix intact.
	r2, _ := NewRing(256)
	segs, err = r2.ReserveBatch([]int{8, len(r2.buf)})
	if !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized batch member: err=%v", err)
	}
	if len(segs) != 1 {
		t.Fatalf("prefix before the oversized member: %d records, want 1", len(segs))
	}
	copy(segs[0], "prefixed")
	r2.CommitReserve()
	buf := make([]byte, 64)
	n, ok, _ := r2.TryRecv(buf)
	if !ok || string(buf[:n]) != "prefixed" {
		t.Fatalf("prefix lost: %q", buf[:n])
	}

	// No space right now (but not ErrTooBig): nil batch, nil error, no
	// reservation to resolve.
	r3, _ := NewRing(64)
	if ok, err := r3.TrySend(make([]byte, 48)); err != nil || !ok {
		t.Fatal("fill failed")
	}
	segs, err = r3.ReserveBatch([]int{40})
	if err != nil || segs != nil {
		t.Fatalf("full ring: segs=%v err=%v, want nil/nil", segs, err)
	}
}

func TestPeekBatchConsumeRoundtrip(t *testing.T) {
	r, _ := NewRing(1024)
	const k = 5
	for i := 0; i < k; i++ {
		if ok, err := r.TrySend([]byte(fmt.Sprintf("record-%d", i))); err != nil || !ok {
			t.Fatal("send failed")
		}
	}
	segs, err := r.PeekBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("peeked %d records, want 3", len(segs))
	}
	for i, seg := range segs {
		if want := fmt.Sprintf("record-%d", i); string(seg) != want {
			t.Fatalf("record %d: %q, want %q", i, seg, want)
		}
	}
	r.ConsumeBatch()
	// The remaining records are intact and a batch larger than the
	// backlog returns just the backlog.
	segs, err = r.PeekBatch(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != k-3 {
		t.Fatalf("peeked %d records, want %d", len(segs), k-3)
	}
	if !bytes.Equal(segs[0], []byte("record-3")) {
		t.Fatalf("tail record corrupted: %q", segs[0])
	}
	r.ConsumeBatch()
	if segs, err := r.PeekBatch(4); err != nil || segs != nil {
		t.Fatalf("empty ring peek: segs=%v err=%v", segs, err)
	}
	// Close-drain semantics match TryRecv: drain, then ErrClosed.
	if ok, _ := r.TrySend([]byte("last")); !ok {
		t.Fatal("send failed")
	}
	r.Close()
	segs, err = r.PeekBatch(4)
	if err != nil || len(segs) != 1 {
		t.Fatalf("closed-ring drain: %d records err=%v", len(segs), err)
	}
	r.ConsumeBatch()
	if _, err := r.PeekBatch(4); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained closed ring: err=%v, want ErrClosed", err)
	}
}

// TestPeekBatchAcrossWrap forces a skip marker inside the batch's run
// and checks the peek walks over it under the single published cursor.
func TestPeekBatchAcrossWrap(t *testing.T) {
	r, _ := NewRing(128)
	buf := make([]byte, 64)
	// Advance the cursors toward the end of the buffer.
	for i := 0; i < 3; i++ {
		if ok, _ := r.TrySend(make([]byte, 24)); !ok {
			t.Fatal("prefill failed")
		}
		if _, ok, _ := r.TryRecv(buf); !ok {
			t.Fatal("predrain failed")
		}
	}
	// These two records straddle the wrap point.
	for i := 0; i < 2; i++ {
		msg := bytes.Repeat([]byte{byte('a' + i)}, 30)
		if ok, err := r.TrySend(msg); err != nil || !ok {
			t.Fatal("wrap send failed")
		}
	}
	segs, err := r.PeekBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("peeked %d records across the wrap, want 2", len(segs))
	}
	for i, seg := range segs {
		if len(seg) != 30 || seg[0] != byte('a'+i) || seg[29] != byte('a'+i) {
			t.Fatalf("wrapped record %d corrupted", i)
		}
	}
	r.ConsumeBatch()
	if segs, err := r.PeekBatch(8); err != nil || segs != nil {
		t.Fatalf("ring should be empty after wrap consume: segs=%v err=%v", segs, err)
	}
}

// TestBatchReserveGuards pins the misuse panics: interleaving sends
// with an outstanding batch reservation, and consuming without a peek.
func TestBatchReserveGuards(t *testing.T) {
	r, _ := NewRing(256)
	if _, err := r.ReserveBatch([]int{8}); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "TrySend during batch reservation", func() { r.TrySend([]byte("x")) })
	mustPanic(t, "ReserveBatch during reservation", func() { r.ReserveBatch([]int{4}) })
	r.AbortReserve()
	mustPanic(t, "ConsumeBatch without peek", func() { r.ConsumeBatch() })
	if ok, _ := r.TrySend([]byte("y")); !ok {
		t.Fatal("send failed")
	}
	if _, err := r.PeekBatch(1); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "TryRecv during batch peek", func() { r.TryRecv(make([]byte, 8)) })
	mustPanic(t, "PeekBatch during peek", func() { r.PeekBatch(1) })
	r.ConsumeBatch()
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
