// Package ringbuf is the bounded history buffer behind every cursor
// stream: a session's decision trace (/trace) and request spans (/spans),
// and the simulator's machine event log (sim.Machine.Events).
//
// A Ring keeps its newest items, each addressed by its absolute index
// (the count of items appended before it). Since(c) returns the retained
// items with index >= c in order, and next = Head(), the cursor to poll
// from. A cursor below the oldest retained index reports truncated and
// resumes at the oldest: the items in between were overwritten, never
// silently skipped. A negative cursor reads as 0; one at or past Head
// returns no items, next = Head and no truncation.
package ringbuf

import "sync"

// Ring is a bounded, mutex-guarded ring of T held by value. Its slots
// grow on demand up to the capacity; from then on each Append overwrites
// the oldest slot in O(1) without allocating.
type Ring[T any] struct {
	mu       sync.Mutex
	capacity int
	// buf holds item abs in buf[abs%capacity]; it grows to capacity.
	buf  []T
	head int64 // absolute index of the next item
}

// New returns a ring retaining the newest capacity items. It panics on a
// capacity below 1.
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		panic("ringbuf: capacity must be positive")
	}
	return &Ring[T]{capacity: capacity}
}

// Append records v as item Head(). Safe for concurrent use.
func (r *Ring[T]) Append(v T) {
	r.mu.Lock()
	if n := len(r.buf); n < r.capacity {
		if n == cap(r.buf) {
			grown := make([]T, n, min(max(2*n, 16), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.head%int64(r.capacity)] = v
	}
	r.head++
	r.mu.Unlock()
}

// Head returns the absolute index of the next item: how many items were
// ever appended.
func (r *Ring[T]) Head() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// Dropped returns how many items the bound has overwritten.
func (r *Ring[T]) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head - int64(len(r.buf))
}

// Since returns a copy of the retained items with absolute index >=
// cursor, the next cursor to poll from, and whether cursor had fallen
// behind the retained window (see the package comment).
func (r *Ring[T]) Since(cursor int64) (items []T, next int64, truncated bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cursor = max(cursor, 0)
	if oldest := r.head - int64(len(r.buf)); cursor < oldest {
		truncated = true
		cursor = oldest
	}
	if cursor < r.head {
		items = make([]T, 0, r.head-cursor)
	}
	// The window is at most two runs of buf: from cursor's slot to the
	// end, then from slot 0.
	for cursor < r.head {
		i := cursor % int64(r.capacity)
		run := r.buf[i:min(int64(len(r.buf)), i+r.head-cursor)]
		items = append(items, run...)
		cursor += int64(len(run))
	}
	return items, r.head, truncated
}
