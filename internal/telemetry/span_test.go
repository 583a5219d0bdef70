package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestSpanRingAppendSince checks basic append ordering and cursor
// advancement.
func TestSpanRingAppendSince(t *testing.T) {
	r := NewSpanRing(8)
	for i := 0; i < 5; i++ {
		r.Append(Span{Name: "op", StartNs: int64(i)})
	}
	spans, next, truncated := r.Since(0)
	if truncated {
		t.Error("cursor 0 on a non-wrapped ring must not be truncated")
	}
	if len(spans) != 5 || next != 5 {
		t.Fatalf("got %d spans next=%d, want 5 spans next=5", len(spans), next)
	}
	for i, sp := range spans {
		if sp.StartNs != int64(i) {
			t.Errorf("span %d out of order: StartNs=%d", i, sp.StartNs)
		}
		if sp.ID == 0 {
			t.Errorf("span %d has no ID (Append must fill zero IDs)", i)
		}
	}
	// Incremental poll from the returned cursor sees only new spans.
	r.Append(Span{Name: "op", StartNs: 5})
	spans, next, truncated = r.Since(next)
	if truncated || len(spans) != 1 || spans[0].StartNs != 5 || next != 6 {
		t.Errorf("incremental poll: %d spans next=%d truncated=%v", len(spans), next, truncated)
	}
	// Polling at the head is empty, same cursor.
	spans, next2, _ := r.Since(next)
	if len(spans) != 0 || next2 != next {
		t.Errorf("poll at head: %d spans next=%d, want empty same-cursor", len(spans), next2)
	}
}

// TestSpanRingWraparoundTruncation: a cursor older than the oldest
// retained record must signal truncation rather than silently skipping
// the dropped spans.
func TestSpanRingWraparoundTruncation(t *testing.T) {
	r := NewSpanRing(4)
	for i := 0; i < 10; i++ {
		r.Append(Span{Name: "op", StartNs: int64(i)})
	}
	// Only spans 6..9 are retained; cursor 2 fell off the window.
	spans, next, truncated := r.Since(2)
	if !truncated {
		t.Fatal("cursor older than oldest retained record must report truncated")
	}
	if next != 10 {
		t.Errorf("next = %d, want 10", next)
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want the 4 retained", len(spans))
	}
	for i, sp := range spans {
		if want := int64(6 + i); sp.StartNs != want {
			t.Errorf("retained span %d: StartNs=%d, want %d", i, sp.StartNs, want)
		}
	}
	// A cursor inside the retained window is clean.
	if _, _, truncated := r.Since(7); truncated {
		t.Error("cursor inside the retained window must not be truncated")
	}
	// Exactly at the oldest retained record is clean too.
	if spans, _, truncated := r.Since(6); truncated || len(spans) != 4 {
		t.Errorf("cursor at oldest: %d spans truncated=%v, want 4 clean", len(spans), truncated)
	}
}

// TestSpanRingConcurrentAppend hammers the ring from many goroutines
// while a reader polls; meant to run under -race. Readers must only ever
// see fully published records.
func TestSpanRingConcurrentAppend(t *testing.T) {
	r := NewSpanRing(64)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cursor int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			spans, next, _ := r.Since(cursor)
			for _, sp := range spans {
				if sp.Name != "w" {
					t.Errorf("reader saw torn record: %+v", sp)
					return
				}
			}
			cursor = next
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Append(Span{Name: "w", DurationNs: 1})
			}
		}()
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	// Writers finish fast; close the reader after they are done.
	for r.Len() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-waitDone
	if r.Len() != writers*perWriter {
		t.Errorf("Len = %d, want %d", r.Len(), writers*perWriter)
	}
}

// TestSpanHandleLifecycle covers Start/End and the correlation setters.
func TestSpanHandleLifecycle(t *testing.T) {
	r := NewSpanRing(8)
	root := r.Start("http.request", 0, "req-1")
	child := r.Start("actor.queue", root.ID(), "req-1")
	child.SetSession("sess-1")
	child.SetJob("job-1")
	child.AddTicks(3)
	child.AddTicks(2)
	child.SetStatus("error", "boom")
	child.End()
	root.SetSession("sess-1")
	root.End()

	spans, _, _ := r.Since(0)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	c, rt := spans[0], spans[1]
	if c.Parent != rt.ID {
		t.Errorf("child parent = %d, want root ID %d", c.Parent, rt.ID)
	}
	if c.Session != "sess-1" || c.Job != "job-1" || c.Request != "req-1" {
		t.Errorf("child correlation IDs wrong: %+v", c)
	}
	if c.Ticks != 5 {
		t.Errorf("child ticks = %d, want 5", c.Ticks)
	}
	if c.Status != "error" || c.Detail != "boom" {
		t.Errorf("child status = %q/%q, want error/boom", c.Status, c.Detail)
	}
	if c.DurationNs < 0 || rt.DurationNs < c.DurationNs {
		t.Errorf("durations inconsistent: child %d root %d", c.DurationNs, rt.DurationNs)
	}
	if rt.StartNs > c.StartNs {
		t.Errorf("root started after child: %d > %d", rt.StartNs, c.StartNs)
	}
}

// TestSpanNilSafety pins the tracing-off contract: nil rings and handles
// are inert.
func TestSpanNilSafety(t *testing.T) {
	var r *SpanRing
	r.Append(Span{Name: "x"})
	if spans, next, truncated := r.Since(0); spans != nil || next != 0 || truncated {
		t.Error("nil ring Since should be empty")
	}
	if r.Len() != 0 {
		t.Error("nil ring Len should be 0")
	}
	h := r.Start("x", 0, "")
	if h != nil {
		t.Fatal("Start on nil ring should return nil handle")
	}
	// All handle methods on nil must be no-ops.
	h.SetSession("s")
	h.SetJob("j")
	h.SetStatus("error", "d")
	h.AddTicks(1)
	h.End()
	if h.ID() != 0 {
		t.Error("nil handle ID should be 0")
	}
}
