package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/sim"
	"avfs/internal/telemetry"
)

// cursorStreamCase is one stream under the ringbuf cursor contract. push
// appends items until the stream's head reaches at least n and returns the
// head; read answers a cursor with the absolute indices of the items it
// returned, the next cursor and the truncation flag.
type cursorStreamCase struct {
	name     string
	capacity int64
	push     func(t *testing.T, n int64) int64
	read     func(t *testing.T, cursor int64) (idx []int64, next int64, truncated bool)
}

// TestCursorContract runs one cursor table over every stream built on
// ringbuf.Ring — /trace and /spans through Handler(), and the machine
// event log — before the ring wraps and after it does. The cursors are
// 0, one behind the oldest retained item, the oldest, one in mid-window
// (across the wrap point of the backing array once wrapped), the head,
// and math.MaxInt64. Over HTTP a negative cursor is a 400; the library
// reads it as 0.
func TestCursorContract(t *testing.T) {
	f, _ := testFleet(t, Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	sess := mustCreate(t, f, api.CreateSessionRequest{Policy: "optimal"})
	s, err := f.lookup(sess.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Items carry their absolute index: a decision in Reconfig, a span by
	// its ID in spanIdx, a machine event in its position in a subscriber's
	// unbounded copy of the stream.
	var decisions int64
	spanIdx := map[int64]int64{}
	learnSpans := func() {
		known := int64(len(spanIdx))
		recs, next, truncated := s.spans.Since(known)
		if truncated {
			t.Fatalf("spans from %d dropped before the test learned their index", known)
		}
		for i, sp := range recs {
			spanIdx[sp.ID] = known + int64(i)
		}
		if int64(len(spanIdx)) != next {
			t.Fatalf("learned %d span indices, ring head %d", len(spanIdx), next)
		}
	}
	m := sim.New(chip.XGene3Spec())
	m.EnableEventLog()
	var events []sim.Event
	m.Subscribe(func(e sim.Event) { events = append(events, e) })
	freqs := []chip.MHz{m.Spec.MaxFreq, m.Spec.HalfFreq()}

	streams := []cursorStreamCase{
		{
			name:     "trace",
			capacity: traceCap,
			push: func(t *testing.T, n int64) int64 {
				for ; decisions < n; decisions++ {
					s.trace.Append(telemetry.Record{Kind: telemetry.DecSettle, Reconfig: decisions, Proc: -1})
				}
				return decisions
			},
			read: func(t *testing.T, cursor int64) ([]int64, int64, bool) {
				recs, next, truncated := httpCursor[telemetry.Decision](t, ts.URL, sess.ID, "trace", "Trace", cursor, f.TraceSince)
				idx := make([]int64, len(recs))
				for i, d := range recs {
					idx[i] = d.Reconfig
				}
				return idx, next, truncated
			},
		},
		{
			// A read of /spans records no span of its own, so the ring
			// holds exactly what push appended.
			name:     "spans",
			capacity: telemetry.DefaultSpanCap,
			push: func(t *testing.T, n int64) int64 {
				learnSpans()
				for s.spans.Len() < n {
					s.spans.Append(telemetry.Span{Name: "op", Session: sess.ID})
				}
				learnSpans()
				return s.spans.Len()
			},
			read: func(t *testing.T, cursor int64) ([]int64, int64, bool) {
				recs, next, truncated := httpCursor[telemetry.Span](t, ts.URL, sess.ID, "spans", "Span", cursor, f.Spans)
				idx := make([]int64, len(recs))
				for i, sp := range recs {
					idx[i] = spanIdx[sp.ID]
				}
				return idx, next, truncated
			},
		},
		{
			// Machine.Events is the window from the oldest retained event
			// and EventsDropped that event's cursor; read slices the window
			// at the cursor so the same table applies.
			name:     "machine events",
			capacity: 100_000,
			push: func(t *testing.T, n int64) int64 {
				// Every PMD flips frequency each tick: one event per PMD.
				for tick := 0; int64(len(events)) < n; tick++ {
					for p := 0; p < m.Spec.PMDs(); p++ {
						m.Chip.SetPMDFreq(chip.PMDID(p), freqs[tick%2])
					}
					m.Step()
				}
				return int64(len(events))
			},
			read: func(t *testing.T, cursor int64) ([]int64, int64, bool) {
				window, oldest := m.Events(), int64(m.EventsDropped())
				head := oldest + int64(len(window))
				if head != int64(len(events)) {
					t.Fatalf("log accounts for %d events, subscriber saw %d", head, len(events))
				}
				for i, e := range window {
					if e != events[oldest+int64(i)] {
						t.Fatalf("retained event %d is %v, want %v", oldest+int64(i), e, events[oldest+int64(i)])
					}
				}
				from := max(cursor, 0)
				truncated := from < oldest
				from = min(max(from, oldest), head)
				var idx []int64
				for i := from; i < head; i++ {
					idx = append(idx, i)
				}
				return idx, head, truncated
			},
		},
	}

	for _, st := range streams {
		for _, phase := range []struct {
			name string
			n    int64
		}{
			{"before wrap", 10},
			{"after wrap", st.capacity + 7},
		} {
			st.push(t, phase.n)
			for _, c := range []struct {
				name   string
				cursor func(oldest, head, capacity int64) int64
			}{
				{"zero", func(_, _, _ int64) int64 { return 0 }},
				{"one behind the oldest", func(oldest, _, _ int64) int64 { return oldest - 1 }},
				{"at the oldest", func(oldest, _, _ int64) int64 { return oldest }},
				{"mid window", func(oldest, head, capacity int64) int64 {
					if wrap := head - head%capacity; wrap-3 >= oldest {
						return wrap - 3 // [cursor, head) crosses the end of the backing array
					}
					return (oldest + head) / 2
				}},
				{"at the head", func(_, head, _ int64) int64 { return head }},
				{"max int64", func(_, _, _ int64) int64 { return math.MaxInt64 }},
			} {
				head := st.push(t, 0)
				oldest := max(head-st.capacity, 0)
				cursor := c.cursor(oldest, head, st.capacity)
				tag := fmt.Sprintf("%s %s, cursor %s (%d)", st.name, phase.name, c.name, cursor)
				from := min(max(cursor, oldest), head)
				wantTruncated := max(cursor, 0) < oldest
				idx, next, truncated := st.read(t, cursor)
				if next != head || truncated != wantTruncated {
					t.Errorf("%s: next %d truncated %v, want %d %v", tag, next, truncated, head, wantTruncated)
				}
				if int64(len(idx)) != head-from {
					t.Errorf("%s: %d items, want %d (%d..%d)", tag, len(idx), head-from, from, head)
					continue
				}
				for i, got := range idx {
					if got != from+int64(i) {
						t.Errorf("%s: item %d is index %d, want %d", tag, i, got, from+int64(i))
						break
					}
				}
			}
		}
	}
}

// TestTraceRingWrap drives a session's decision ring three times past its
// capacity through the session's tracer: Fleet.TraceSince's window is
// always the newest traceCap decisions in order, and the (next,
// truncated) cursor contract holds at its boundaries.
func TestTraceRingWrap(t *testing.T) {
	f, _ := testFleet(t, Config{})
	sess := mustCreate(t, f, api.CreateSessionRequest{Policy: "optimal"})
	s, err := f.lookup(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Any decisions the session made on its own precede the test's, so
	// each test decision carries its absolute index in Reconfig.
	_, base, _, _ := f.TraceSince(sess.ID, math.MaxInt64)
	emitTo := func(to int64) {
		for n := s.trace.Head(); n < to; n++ {
			s.tracer.Emit(telemetry.Record{Kind: telemetry.DecSettle, Reconfig: n, Proc: -1})
		}
	}
	wantWindow := func(tag string, recs []telemetry.Decision, from, to int64) {
		t.Helper()
		if int64(len(recs)) != to-from {
			t.Fatalf("%s: %d records, want %d", tag, len(recs), to-from)
		}
		for i, d := range recs {
			if d.Reconfig != from+int64(i) {
				t.Fatalf("%s: record %d is decision %d, want %d", tag, i, d.Reconfig, from+int64(i))
			}
		}
	}

	emitTo(base + 10)
	recs, next, truncated, err := f.TraceSince(sess.ID, base)
	if err != nil {
		t.Fatal(err)
	}
	if truncated || next != base+10 {
		t.Fatalf("before wrap: next %d truncated %v", next, truncated)
	}
	wantWindow("before wrap", recs, base, base+10)

	total := base + 3*traceCap + 7
	emitTo(total)
	oldest := total - traceCap
	for _, tc := range []struct {
		name      string
		since     int64
		from      int64
		truncated bool
	}{
		{"from zero", 0, oldest, true},
		{"one behind the oldest", oldest - 1, oldest, true},
		{"at the oldest", oldest, oldest, false},
		{"mid window, before the wrap point", oldest + 5, oldest + 5, false},
		{"mid window, past the wrap point", total - 3, total - 3, false},
		{"at the newest", total, total, false},
	} {
		recs, next, truncated, err := f.TraceSince(sess.ID, tc.since)
		if err != nil {
			t.Fatal(err)
		}
		if next != total || truncated != tc.truncated {
			t.Errorf("%s: next %d truncated %v, want %d %v", tc.name, next, truncated, total, tc.truncated)
		}
		wantWindow(tc.name, recs, tc.from, total)
	}
}

// TestAppendTraceFullRingConstant pins the session's decision path once
// its ring is full: a decision emitted on the session's tracer allocates
// nothing, and /trace's window moves by exactly that decision.
func TestAppendTraceFullRingConstant(t *testing.T) {
	f, _ := testFleet(t, Config{})
	sess := mustCreate(t, f, api.CreateSessionRequest{Policy: "optimal"})
	s, err := f.lookup(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The session's own run decisions precede the test's, so the test
	// tags its decisions with their absolute index: Reconfig = base + n.
	_, base, _, _ := f.TraceSince(sess.ID, math.MaxInt64)
	emit := func(n int64) {
		s.tracer.Emit(telemetry.Record{Kind: telemetry.DecSettle, Reconfig: base + n, Proc: -1})
	}
	n := int64(0)
	for ; n < traceCap+3; n++ {
		emit(n)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		emit(n)
		n++
	}); allocs != 0 {
		t.Errorf("a decision on a full ring allocates %v times", allocs)
	}
	recs, next, truncated, err := f.TraceSince(sess.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != base+n || !truncated || len(recs) != traceCap {
		t.Fatalf("next %d truncated %v, %d records; want %d true %d", next, truncated, len(recs), base+n, traceCap)
	}
	for i, d := range recs {
		if want := base + n - traceCap + int64(i); d.Reconfig != want {
			t.Fatalf("record %d is decision %d, want %d", i, d.Reconfig, want)
		}
	}
}

// TestSpansPollerDoesNotObserveItself: polling an idle session's /spans
// with ?since=next records nothing into the ring it drains. After 5,000
// polls, more than the ring holds, X-Span-Next has not moved and every
// span of the run before them is still readable from 0.
func TestSpansPollerDoesNotObserveItself(t *testing.T) {
	f, _ := testFleet(t, Config{})
	h := f.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	sess := mustCreate(t, f, api.CreateSessionRequest{Policy: "optimal"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sess.ID+"/run",
		strings.NewReader(`{"seconds":2}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body.Bytes())
	}
	spansPath := "/v1/sessions/" + sess.ID + "/spans?since="
	first := get(spansPath + "0")
	next := first.Header().Get("X-Span-Next")
	if next == "0" || first.Body.Len() == 0 {
		t.Fatalf("precondition: the run recorded no spans (next %s)", next)
	}
	const polls = 5000
	if polls <= telemetry.DefaultSpanCap {
		t.Fatal("precondition: the polls must outnumber the ring's slots")
	}
	for i := 0; i < polls; i++ {
		r := get(spansPath + next)
		if got := r.Header().Get("X-Span-Next"); got != next || r.Body.Len() != 0 {
			t.Fatalf("poll %d: X-Span-Next %s, %d body bytes; want %s and none", i, got, r.Body.Len(), next)
		}
	}
	again := get(spansPath + "0")
	if again.Header().Get("X-Span-Truncated") != "false" || again.Body.String() != first.Body.String() {
		t.Errorf("the run's spans changed under the poller (truncated %s)", again.Header().Get("X-Span-Truncated"))
	}
}

// httpCursor reads one cursor stream over HTTP and decodes its JSONL body.
// A negative cursor is answered by the library accessor read, then
// checked to be a 400 over HTTP.
func httpCursor[T any](t *testing.T, base, id, stream, header string, cursor int64,
	read func(string, int64) ([]T, int64, bool, error)) ([]T, int64, bool) {
	t.Helper()
	if cursor < 0 {
		recs, next, truncated, err := read(id, cursor)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/%s?since=%d", base, id, stream, cursor))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s?since=%d: status %d, want 400", stream, cursor, resp.StatusCode)
		}
		return recs, next, truncated
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/%s?since=%d", base, id, stream, cursor))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s?since=%d: status %d: %s", stream, cursor, resp.StatusCode, body)
	}
	next, err := strconv.ParseInt(resp.Header.Get("X-"+header+"-Next"), 10, 64)
	if err != nil {
		t.Fatalf("X-%s-Next: %v", header, err)
	}
	var recs []T
	dec := json.NewDecoder(strings.NewReader(string(body)))
	for dec.More() {
		var rec T
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("%s body: %v", stream, err)
		}
		recs = append(recs, rec)
	}
	return recs, next, resp.Header.Get("X-"+header+"-Truncated") == "true"
}
