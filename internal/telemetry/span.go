package telemetry

import (
	"sync/atomic"
	"time"

	"avfs/internal/ringbuf"
)

// Span is one completed operation of a causal request trace: what ran,
// how long it took, and the links that stitch the operations of one
// request into a tree. Spans carry three correlation identities — the
// request ID minted by the HTTP middleware, the session the work belongs
// to, and the async job handle (when the work outlived its request) — so
// a single request can be followed from the HTTP edge through the actor
// mailbox, the worker pool and the simulator's tick-batch commits.
//
// Timestamps are monotonic: StartNs is nanoseconds since the owning
// ring's epoch (never wall time, so spans order correctly across clock
// adjustments), DurationNs is the span's measured length.
type Span struct {
	// ID is process-unique (NextSpanID); Parent links the span into its
	// request tree, 0 marks a root.
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"`
	// Request/Session/Job are the correlation identities (any may be
	// empty: library callers have no request ID, sync runs no job).
	Request string `json:"request_id,omitempty"`
	Session string `json:"session,omitempty"`
	Job     string `json:"job,omitempty"`
	// Name classifies the operation ("http.request", "actor.queue",
	// "job", "runner.cell", "sim.advance").
	Name string `json:"name"`
	// StartNs is monotonic nanoseconds since the ring epoch.
	StartNs    int64 `json:"start_ns"`
	DurationNs int64 `json:"duration_ns"`
	// Ticks counts simulator tick commits covered by the span (advance
	// spans only).
	Ticks uint64 `json:"ticks,omitempty"`
	// Status is "" for success, "error" or "canceled" otherwise.
	Status string `json:"status,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// spanIDs allocates process-unique span IDs. A process-wide allocator —
// rather than per-ring — lets a span's ID be minted before the owning
// session (and therefore ring) is known, which is exactly the HTTP
// middleware's situation.
var spanIDs atomic.Int64

// NextSpanID returns a fresh process-unique span ID (first ID is 1; 0
// always means "no span").
func NextSpanID() int64 { return spanIDs.Add(1) }

// SpanRing is a session's bounded ring of completed spans: a
// ringbuf.Ring that also owns the spans' monotonic epoch and fills zero
// span IDs. Append, Start, Len and Since are nil-safe: a nil ring is
// tracing off.
type SpanRing struct {
	ring  *ringbuf.Ring[Span]
	epoch time.Time
}

// DefaultSpanCap is the default per-session ring capacity. A request
// produces a handful of spans and a long run a few dozen (chunk spans are
// budgeted, see the service layer), so 4096 holds the recent window of
// even a busy session.
const DefaultSpanCap = 4096

// NewSpanRing creates a ring retaining the newest capacity spans
// (<= 0 selects DefaultSpanCap).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanRing{ring: ringbuf.New[Span](capacity), epoch: time.Now()}
}

// Stamp converts a time.Time captured by the caller into the ring's
// monotonic StartNs timebase.
func (r *SpanRing) Stamp(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// Append records one completed span, filling a zero ID from NextSpanID.
// Safe for concurrent use.
func (r *SpanRing) Append(sp Span) {
	if r == nil {
		return
	}
	if sp.ID == 0 {
		sp.ID = NextSpanID()
	}
	r.ring.Append(sp)
}

// Len returns how many spans have ever been appended (the next cursor).
func (r *SpanRing) Len() int64 {
	if r == nil {
		return 0
	}
	return r.ring.Head()
}

// Since reads the ring from an absolute cursor under the ringbuf cursor
// contract: the spans, the next cursor, and whether the cursor had fallen
// behind the retained window.
func (r *SpanRing) Since(cursor int64) (spans []Span, next int64, truncated bool) {
	if r == nil {
		return nil, 0, false
	}
	return r.ring.Since(cursor)
}

// SpanHandle is an in-flight span: Start stamps the begin time, End
// measures the duration and publishes to the ring. Every method is
// nil-safe so call sites need no tracing-enabled branches.
type SpanHandle struct {
	ring  *SpanRing
	start time.Time
	sp    Span
}

// Start opens a span on the ring. parent is the enclosing span's ID (0
// for a root); request is the correlation ID. Returns nil on a nil ring.
func (r *SpanRing) Start(name string, parent int64, request string) *SpanHandle {
	if r == nil {
		return nil
	}
	now := time.Now()
	return &SpanHandle{
		ring:  r,
		start: now,
		sp: Span{
			ID:      NextSpanID(),
			Parent:  parent,
			Request: request,
			Name:    name,
			StartNs: r.Stamp(now),
		},
	}
}

// ID returns the span's ID (0 on a nil handle), for parenting children.
func (h *SpanHandle) ID() int64 {
	if h == nil {
		return 0
	}
	return h.sp.ID
}

// SetSession attaches the session correlation identity.
func (h *SpanHandle) SetSession(id string) {
	if h != nil {
		h.sp.Session = id
	}
}

// SetJob attaches the async-job correlation identity.
func (h *SpanHandle) SetJob(id string) {
	if h != nil {
		h.sp.Job = id
	}
}

// SetStatus records the outcome ("" = ok) and an optional detail.
func (h *SpanHandle) SetStatus(status, detail string) {
	if h != nil {
		h.sp.Status = status
		h.sp.Detail = detail
	}
}

// AddTicks accumulates simulator tick commits covered by the span.
func (h *SpanHandle) AddTicks(n uint64) {
	if h != nil {
		h.sp.Ticks += n
	}
}

// End stamps the duration and publishes the span.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	h.sp.DurationNs = time.Since(h.start).Nanoseconds()
	h.ring.Append(h.sp)
}
