package ringbuf

import (
	"testing"
	"unsafe"
)

// rec is a test item carrying strings, like the production item types.
type rec struct {
	abs  int64
	name string
}

func item(n int64) rec { return rec{abs: n, name: "op"} }

// TestRingGrowsOnDemand: the slots start empty, grow with the items, and
// never past the capacity.
func TestRingGrowsOnDemand(t *testing.T) {
	const capacity = 100
	r := New[rec](capacity)
	if cap(r.buf) != 0 {
		t.Fatalf("new ring holds %d slots, want 0", cap(r.buf))
	}
	for n := int64(0); n < 3*capacity; n++ {
		r.Append(item(n))
		if got, want := len(r.buf), min(int(n)+1, capacity); got != want || cap(r.buf) > capacity {
			t.Fatalf("after %d appends: %d items in %d slots, want %d in <= %d", n+1, got, cap(r.buf), want, capacity)
		}
	}
	if r.Head() != 3*capacity || r.Dropped() != 2*capacity {
		t.Errorf("head %d dropped %d, want %d and %d", r.Head(), r.Dropped(), 3*capacity, 2*capacity)
	}
}

// TestRingFullAppendConstant pins the O(1) append: once the ring is full,
// an item allocates nothing and overwrites exactly the oldest slot of the
// same backing array, instead of shifting the window.
func TestRingFullAppendConstant(t *testing.T) {
	const capacity = 4096
	r := New[rec](capacity)
	n := int64(0)
	for ; n < capacity+3; n++ {
		r.Append(item(n))
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Append(item(n))
		n++
	}); allocs != 0 {
		t.Errorf("append to a full ring allocates %v times", allocs)
	}

	before := append([]rec(nil), r.buf...)
	base := unsafe.SliceData(r.buf)
	r.Append(item(n))
	if unsafe.SliceData(r.buf) != base || len(r.buf) != capacity {
		t.Fatal("append to a full ring replaced the backing array")
	}
	for i := range before {
		changed := r.buf[i] != before[i]
		if want := int64(i) == n%capacity; changed != want {
			t.Fatalf("slot %d changed=%v, want %v (only the oldest slot may be overwritten)", i, changed, want)
		}
	}
}
