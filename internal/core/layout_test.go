package core

import (
	"testing"
	"unsafe"
)

// The false-sharing layout contract (DESIGN.md §16): every hot word a
// spinning peer can invalidate gets a 64-byte cache line to itself.
// These assertions exist so a future field insertion cannot silently
// push two hot words back onto one line — the regression would show up
// only as a few percent of cross-core throughput, which no functional
// test catches.

const cacheLine = 64

// sameLine reports whether byte ranges [a, a+an) and [b, b+bn) can
// touch a common 64-byte line (assuming the struct base is
// line-aligned — heap bases may be offset, but fields separated within
// the struct stay separated at any base).
func sameLine(a, an, b, bn uintptr) bool {
	return a/cacheLine == (b+bn-1)/cacheLine || b/cacheLine == (a+an-1)/cacheLine
}

func TestHotWordLayout(t *testing.T) {
	// Registry shards sit adjacent in one slice: the shard lock must
	// own its line and the whole shard must be a line multiple, or
	// neighbouring shards' locks land on one line.
	var rs registryShard
	if got := unsafe.Sizeof(rs); got%cacheLine != 0 {
		t.Errorf("registryShard is %d bytes, want a multiple of %d", got, cacheLine)
	}
	if sameLine(unsafe.Offsetof(rs.lock), unsafe.Sizeof(rs.lock), unsafe.Offsetof(rs.names), 8) {
		t.Errorf("registryShard lock (at %d) shares a line with names (at %d)",
			unsafe.Offsetof(rs.lock), unsafe.Offsetof(rs.names))
	}

	// The circuit lock is the facility's hottest word; the fields
	// after it are walked while it is held by others.
	var l lnvc
	if sameLine(unsafe.Offsetof(l.lock), unsafe.Sizeof(l.lock), unsafe.Offsetof(l.cond), 8) {
		t.Errorf("lnvc lock (at %d) shares a line with cond (at %d)",
			unsafe.Offsetof(l.lock), unsafe.Offsetof(l.cond))
	}

	// The publish word is polled by spinning receivers outside the
	// lock: it must share a line neither with the lock senders take
	// nor with the descriptor fields they write under it.
	if sameLine(unsafe.Offsetof(l.pub), unsafe.Sizeof(l.pub), unsafe.Offsetof(l.lock), unsafe.Sizeof(l.lock)) {
		t.Errorf("lnvc pub (at %d) shares a line with lock (at %d)",
			unsafe.Offsetof(l.pub), unsafe.Offsetof(l.lock))
	}
	if sameLine(unsafe.Offsetof(l.pub), unsafe.Sizeof(l.pub), unsafe.Offsetof(l.cond), 8) {
		t.Errorf("lnvc pub (at %d) shares a line with cond (at %d)",
			unsafe.Offsetof(l.pub), unsafe.Offsetof(l.cond))
	}

	// The credit ledger's debit word versus the waiter list senders
	// park on and receivers drain.
	if sameLine(unsafe.Offsetof(l.creditUsed), unsafe.Sizeof(l.creditUsed),
		unsafe.Offsetof(l.creditWaiters), unsafe.Sizeof(l.creditWaiters)) {
		t.Errorf("lnvc creditUsed (at %d) shares a line with creditWaiters (at %d)",
			unsafe.Offsetof(l.creditUsed), unsafe.Offsetof(l.creditWaiters))
	}

	// The selector's mu/ready group is hammered by senders (markReady
	// under the firing circuit's lock); the fields before the pad
	// belong to the parked owner.
	var s Selector
	if unsafe.Offsetof(s.mu)%cacheLine != 0 {
		t.Errorf("Selector.mu at offset %d, want a %d-byte boundary", unsafe.Offsetof(s.mu), cacheLine)
	}
	if sameLine(unsafe.Offsetof(s.w), 8, unsafe.Offsetof(s.mu), unsafe.Sizeof(s.mu)) {
		t.Errorf("Selector.w (at %d) shares a line with mu (at %d)",
			unsafe.Offsetof(s.w), unsafe.Offsetof(s.mu))
	}
}
