package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func newFac(t *testing.T) *Facility {
	t.Helper()
	f, err := Init(Config{MaxLNVCs: 16, MaxProcesses: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	return f
}

func TestInitDefaults(t *testing.T) {
	f, err := Init(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	cfg := f.Config()
	if cfg.MaxLNVCs <= 0 || cfg.MaxProcesses <= 0 || cfg.BlockSize <= 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}

func TestInitRejectsTinyBlocks(t *testing.T) {
	if _, err := Init(Config{BlockSize: 3}); err == nil {
		t.Fatal("block size 3 accepted")
	}
}

func TestOpenSendCreatesLNVC(t *testing.T) {
	f := newFac(t)
	id, err := f.OpenSend(0, "pipe")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := f.LNVCByName("pipe"); !ok || got != id {
		t.Fatalf("LNVCByName = %d,%v, want %d,true", got, ok, id)
	}
	if f.LNVCCount() != 1 {
		t.Fatalf("LNVCCount = %d", f.LNVCCount())
	}
	info, err := f.LNVCInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Senders != 1 || info.FCFSRecvs != 0 || info.BcastRecvs != 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestOpenReceiveJoinsSameLNVC(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "pipe")
	rid, err := f.OpenReceive(1, "pipe", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if sid != rid {
		t.Fatalf("send id %d != receive id %d for same name", sid, rid)
	}
}

func TestLoopback(t *testing.T) {
	// The paper's base benchmark: a single process holds both a send and
	// a receive connection on one LNVC.
	f := newFac(t)
	sid, err := f.OpenSend(0, "loop")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := f.OpenReceive(0, "loop", FCFS)
	if err != nil {
		t.Fatalf("same process opening receive after send: %v", err)
	}
	msg := []byte("around the loop")
	if err := f.Send(0, sid, msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := f.Receive(0, rid, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("received %q, want %q", buf[:n], msg)
	}
}

func TestValidation(t *testing.T) {
	f := newFac(t)
	id, _ := f.OpenSend(0, "x")

	cases := []struct {
		name string
		err  error
		want error
	}{
		{"pid negative", func() error { _, e := f.OpenSend(-1, "a"); return e }(), ErrBadProcess},
		{"pid too big", func() error { _, e := f.OpenSend(20, "a"); return e }(), ErrBadProcess},
		{"empty name", func() error { _, e := f.OpenSend(0, ""); return e }(), ErrEmptyName},
		{"long name", func() error { _, e := f.OpenSend(0, string(make([]byte, 200))); return e }(), ErrNameTooLong},
		{"bad id send", f.Send(0, 99, nil), ErrBadLNVC},
		{"bad id close", f.CloseSend(0, 99), ErrBadLNVC},
		{"negative id", f.Send(0, -1, nil), ErrBadLNVC},
		{"not connected send", f.Send(1, id, nil), ErrNotConnected},
		{"not connected close recv", f.CloseReceive(0, id), ErrNotConnected},
		{"dup send open", func() error { _, e := f.OpenSend(0, "x"); return e }(), ErrAlreadyOpen},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, c.err, c.want)
		}
	}

	if _, err := f.OpenReceive(0, "x", Protocol(9)); err == nil {
		t.Error("unknown protocol accepted")
	}

	// One receive connection per process per LNVC, regardless of protocol
	// (the paper's FCFS/BROADCAST mixing rule).
	if _, err := f.OpenReceive(1, "x", FCFS); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenReceive(1, "x", Broadcast); !errors.Is(err, ErrAlreadyOpen) {
		t.Errorf("mixed-protocol second open: err = %v, want ErrAlreadyOpen", err)
	}
	if _, err := f.OpenReceive(1, "x", FCFS); !errors.Is(err, ErrAlreadyOpen) {
		t.Errorf("same-protocol second open: err = %v, want ErrAlreadyOpen", err)
	}
}

func TestLNVCTableFull(t *testing.T) {
	f := newFac(t) // MaxLNVCs: 16
	for i := 0; i < 16; i++ {
		if _, err := f.OpenSend(0, fmt.Sprintf("c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.OpenSend(0, "one-too-many"); !errors.Is(err, ErrTooManyLNVCs) {
		t.Fatalf("err = %v, want ErrTooManyLNVCs", err)
	}
	// Deleting one frees a slot.
	id, _ := f.LNVCByName("c3")
	if err := f.CloseSend(0, id); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenSend(0, "now-it-fits"); err != nil {
		t.Fatalf("open after delete: %v", err)
	}
}

func TestFCFSSingleDelivery(t *testing.T) {
	// With N FCFS receivers, each message is delivered exactly once.
	f := newFac(t)
	sid, _ := f.OpenSend(0, "work")
	const nRecv, nMsgs = 4, 100
	rids := make([]ID, nRecv)
	for i := 0; i < nRecv; i++ {
		rids[i], _ = f.OpenReceive(1+i, "work", FCFS)
	}
	for i := 0; i < nMsgs; i++ {
		if err := f.Send(0, sid, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan byte, nMsgs)
	done := make(chan int, nRecv)
	for i := 0; i < nRecv; i++ {
		go func(pid int, rid ID) {
			buf := make([]byte, 4)
			count := 0
			for {
				ok, err := f.CheckReceive(pid, rid)
				if err != nil || !ok {
					break
				}
				// The check is advisory: a sibling may take the last
				// message between it and the receive, so the receive
				// is bounded rather than parked for good.
				n, err := f.ReceiveDeadline(pid, rid, buf, 100*time.Millisecond)
				if err != nil {
					break
				}
				if n != 1 {
					t.Errorf("n = %d, want 1", n)
				}
				got <- buf[0]
				count++
			}
			done <- count
		}(1+i, rids[i])
	}
	total := 0
	for i := 0; i < nRecv; i++ {
		total += <-done
	}
	// check_receive is advisory for FCFS, so a receiver may exit while
	// messages remain; drain the remainder synchronously.
	buf := make([]byte, 4)
	for {
		ok, _ := f.CheckReceive(1, rids[0])
		if !ok {
			break
		}
		n, err := f.Receive(1, rids[0], buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			got <- buf[0]
			total++
		}
	}
	if total != nMsgs {
		t.Fatalf("delivered %d messages, want %d", total, nMsgs)
	}
	close(got)
	seen := make(map[byte]int)
	for b := range got {
		seen[b]++
	}
	for i := 0; i < nMsgs; i++ {
		if seen[byte(i)] != 1 {
			t.Fatalf("message %d delivered %d times, want exactly 1", i, seen[byte(i)])
		}
	}
}

func TestFCFSOrderingSingleReceiver(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "seq")
	rid, _ := f.OpenReceive(1, "seq", FCFS)
	for i := 0; i < 50; i++ {
		if err := f.Send(0, sid, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1)
	for i := 0; i < 50; i++ {
		if _, err := f.Receive(1, rid, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, buf[0])
		}
	}
}

func TestBroadcastAllReceive(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "news")
	const nRecv, nMsgs = 5, 40
	rids := make([]ID, nRecv)
	for i := 0; i < nRecv; i++ {
		rids[i], _ = f.OpenReceive(1+i, "news", Broadcast)
	}
	for i := 0; i < nMsgs; i++ {
		if err := f.Send(0, sid, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < nRecv; r++ {
		buf := make([]byte, 1)
		for i := 0; i < nMsgs; i++ {
			n, err := f.Receive(1+r, rids[r], buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 || buf[0] != byte(i) {
				t.Fatalf("receiver %d message %d: got %d bytes value %d", r, i, n, buf[0])
			}
		}
		if ok, _ := f.CheckReceive(1+r, rids[r]); ok {
			t.Fatalf("receiver %d sees extra messages", r)
		}
	}
	// Every message consumed by all receivers: all blocks recycled.
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Fatalf("blocks leaked: %d free of %d", free, total)
	}
}

func TestMixedFCFSAndBroadcast(t *testing.T) {
	// A message goes to every BROADCAST receiver and exactly one FCFS
	// receiver (paper §1).
	f := newFac(t)
	sid, _ := f.OpenSend(0, "mix")
	fid1, _ := f.OpenReceive(1, "mix", FCFS)
	fid2, _ := f.OpenReceive(2, "mix", FCFS)
	bid1, _ := f.OpenReceive(3, "mix", Broadcast)
	bid2, _ := f.OpenReceive(4, "mix", Broadcast)

	const nMsgs = 30
	for i := 0; i < nMsgs; i++ {
		if err := f.Send(0, sid, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Broadcast receivers each see the complete stream, in order.
	for r, rid := range []ID{bid1, bid2} {
		buf := make([]byte, 1)
		for i := 0; i < nMsgs; i++ {
			if _, err := f.Receive(3+r, rid, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(i) {
				t.Fatalf("broadcast receiver %d: message %d got %d", r, i, buf[0])
			}
		}
	}
	// FCFS receivers partition the stream.
	seen := make(map[byte]int)
	buf := make([]byte, 1)
	for {
		ok, _ := f.CheckReceive(1, fid1)
		if !ok {
			break
		}
		f.Receive(1, fid1, buf)
		seen[buf[0]]++
		// Alternate to exercise both FCFS connections.
		if ok, _ := f.CheckReceive(2, fid2); ok {
			f.Receive(2, fid2, buf)
			seen[buf[0]]++
		}
	}
	for i := 0; i < nMsgs; i++ {
		if seen[byte(i)] != 1 {
			t.Fatalf("FCFS delivery of message %d: %d times", i, seen[byte(i)])
		}
	}
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Fatalf("blocks leaked: %d free of %d", free, total)
	}
}

func TestFCFSSubStreamOrdering(t *testing.T) {
	// Paper §3.1: the sequence-preserving LNVC forces a time-ordering on
	// the sub-stream an FCFS receiver sees.
	f := newFac(t)
	sid, _ := f.OpenSend(0, "sub")
	r1, _ := f.OpenReceive(1, "sub", FCFS)
	r2, _ := f.OpenReceive(2, "sub", FCFS)
	for i := 0; i < 40; i++ {
		f.Send(0, sid, []byte{byte(i)})
	}
	buf := make([]byte, 1)
	last1, last2 := -1, -1
	for i := 0; i < 20; i++ {
		f.Receive(1, r1, buf)
		if int(buf[0]) <= last1 {
			t.Fatalf("receiver 1 sub-stream out of order: %d after %d", buf[0], last1)
		}
		last1 = int(buf[0])
		f.Receive(2, r2, buf)
		if int(buf[0]) <= last2 {
			t.Fatalf("receiver 2 sub-stream out of order: %d after %d", buf[0], last2)
		}
		last2 = int(buf[0])
	}
}

func TestReceiveBlocksUntilSend(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "blk")
	rid, _ := f.OpenReceive(1, "blk", FCFS)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, err := f.Receive(1, rid, buf)
		if err != nil {
			t.Error(err)
		}
		got <- buf[:n]
	}()
	select {
	case <-got:
		t.Fatal("Receive returned before any send")
	case <-time.After(30 * time.Millisecond):
	}
	if err := f.Send(0, sid, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if string(b) != "wake" {
			t.Fatalf("got %q", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Receive never woke after Send")
	}
}

func TestReceiveTruncatesToBuffer(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "tr")
	rid, _ := f.OpenReceive(1, "tr", FCFS)
	f.Send(0, sid, []byte("0123456789"))
	buf := make([]byte, 4)
	n, err := f.Receive(1, rid, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || string(buf) != "0123" {
		t.Fatalf("n=%d buf=%q", n, buf)
	}
	// The truncated message is consumed, not requeued.
	if ok, _ := f.CheckReceive(1, rid); ok {
		t.Fatal("truncated message still queued")
	}
}

func TestZeroLengthMessage(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "z")
	rid, _ := f.OpenReceive(1, "z", FCFS)
	if err := f.Send(0, sid, nil); err != nil {
		t.Fatal(err)
	}
	if ok, _ := f.CheckReceive(1, rid); !ok {
		t.Fatal("zero-length message not visible to check_receive")
	}
	n, err := f.Receive(1, rid, make([]byte, 8))
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestCheckReceiveSemantics(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "chk")
	rid, _ := f.OpenReceive(1, "chk", FCFS)
	if ok, err := f.CheckReceive(1, rid); err != nil || ok {
		t.Fatalf("empty LNVC: ok=%v err=%v", ok, err)
	}
	f.Send(0, sid, []byte("m"))
	if ok, err := f.CheckReceive(1, rid); err != nil || !ok {
		t.Fatalf("after send: ok=%v err=%v", ok, err)
	}
	f.Receive(1, rid, make([]byte, 1))
	if ok, _ := f.CheckReceive(1, rid); ok {
		t.Fatal("after receive: message still reported")
	}
	// Broadcast guarantee (paper: if the receive connection is
	// BROADCAST, the message is guaranteed present at receive).
	bid, _ := f.OpenReceive(2, "chk", Broadcast)
	f.Send(0, sid, []byte("n"))
	if ok, _ := f.CheckReceive(2, bid); !ok {
		t.Fatal("broadcast receiver does not see message")
	}
}

func TestMessageTooBig(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 2, MaxProcesses: 2, BlockSize: 16, BlocksPerProcess: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	sid, _ := f.OpenSend(0, "big")
	huge := make([]byte, f.Arena().NumBlocks()*f.Arena().PayloadSize()+1)
	if err := f.Send(0, sid, huge); !errors.Is(err, ErrMessageTooBig) {
		t.Fatalf("err = %v, want ErrMessageTooBig", err)
	}
}

func TestSendPolicyFailFast(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 2, MaxProcesses: 2, BlockSize: 16, BlocksPerProcess: 4, SendPolicy: FailFast})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	sid, _ := f.OpenSend(0, "ff")
	f.OpenReceive(1, "ff", FCFS)
	payload := make([]byte, 12) // one 16-byte block each
	nBlocks := f.Arena().NumBlocks()
	for i := 0; i < nBlocks; i++ {
		if err := f.Send(0, sid, payload); err != nil {
			t.Fatalf("send %d/%d: %v", i, nBlocks, err)
		}
	}
	if err := f.Send(0, sid, payload); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
}

func TestSendPolicyBlockUntilFree(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 2, MaxProcesses: 2, BlockSize: 16, BlocksPerProcess: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	sid, _ := f.OpenSend(0, "bl")
	rid, _ := f.OpenReceive(1, "bl", FCFS)
	payload := make([]byte, 12)
	for i := 0; i < f.Arena().NumBlocks(); i++ {
		if err := f.Send(0, sid, payload); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- f.Send(0, sid, payload) }()
	select {
	case err := <-sent:
		t.Fatalf("send with full region returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := f.Receive(1, rid, make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("blocked send failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked send never completed after receive freed blocks")
	}
}

func TestShutdownWakesBlockedReceive(t *testing.T) {
	f := newFac(t)
	f.OpenSend(0, "sd")
	rid, _ := f.OpenReceive(1, "sd", FCFS)
	errc := make(chan error, 1)
	go func() {
		_, err := f.Receive(1, rid, make([]byte, 1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	f.Shutdown()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("err = %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Receive not woken by Shutdown")
	}
	if _, err := f.OpenSend(2, "post"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("open after shutdown: %v", err)
	}
}

func TestShutdownWakesBlockedSend(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 2, MaxProcesses: 2, BlockSize: 16, BlocksPerProcess: 2})
	if err != nil {
		t.Fatal(err)
	}
	sid, _ := f.OpenSend(0, "sd2")
	f.OpenReceive(1, "sd2", FCFS)
	payload := make([]byte, 12)
	for i := 0; i < f.Arena().NumBlocks(); i++ {
		f.Send(0, sid, payload)
	}
	errc := make(chan error, 1)
	go func() { errc <- f.Send(0, sid, payload) }()
	time.Sleep(20 * time.Millisecond)
	f.Shutdown()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("err = %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Send not woken by Shutdown")
	}
}

func TestStatsCounters(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "st")
	rid, _ := f.OpenReceive(1, "st", FCFS)
	f.Send(0, sid, []byte("12345"))
	f.Receive(1, rid, make([]byte, 8))
	f.CheckReceive(1, rid)
	f.CloseSend(0, sid)
	f.CloseReceive(1, rid)
	st := f.Stats()
	if st.Opens != 2 || st.Closes != 2 || st.Sends != 1 || st.Receives != 1 || st.Checks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesSent != 5 || st.BytesRecvd != 5 {
		t.Fatalf("bytes = %d/%d", st.BytesSent, st.BytesRecvd)
	}
	if st.LNVCsCreated != 1 || st.LNVCsDeleted != 1 {
		t.Fatalf("lnvc counts = %d/%d", st.LNVCsCreated, st.LNVCsDeleted)
	}
}
