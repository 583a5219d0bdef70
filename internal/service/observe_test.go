package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/telemetry"
)

// syncBuffer lets the test read the access log while the middleware may
// still be appending lines from in-flight requests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func doJSON(t *testing.T, c *http.Client, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode: %v (%s)", method, url, err, data)
		}
	}
	return resp
}

// TestRequestSpanTree is the issue's end-to-end acceptance check: one
// POST /v1/sessions/{id}/runs must yield a connected span tree — HTTP
// request, actor queue wait, async job, runner cell, and tick-batch
// commits — all sharing one request ID, retrievable over the spans
// endpoint, and correlated with the matching access-log line.
func TestRequestSpanTree(t *testing.T) {
	accessLog := &syncBuffer{}
	f, _ := testFleet(t, Config{AccessLog: accessLog})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	c := ts.Client()

	var sess api.Session
	doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions",
		api.CreateSessionRequest{Policy: "optimal"}, &sess)
	if _, err := f.Submit(sess.ID, api.SubmitRequest{Benchmark: "CG", Threads: 8}); err != nil {
		t.Fatal(err)
	}

	// The run itself goes over HTTP so the middleware mints the request ID
	// and the root span. Async exercises the longest span chain: the job
	// link sits between the HTTP request and the runner cell.
	var job api.Job
	resp := doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions/"+sess.ID+"/run",
		api.RunRequest{Seconds: 3, Async: true}, &job)
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("run response carries no X-Request-ID")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var j api.Job
		doJSON(t, c, http.MethodGet, ts.URL+"/v1/sessions/"+sess.ID+"/jobs/"+job.ID, nil, &j)
		if j.Status == api.JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", job.ID, j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The root span is appended when the middleware finishes, which can
	// trail the response by a scheduling beat; poll briefly.
	var mine []api.Span
	for {
		httpResp, err := c.Get(ts.URL + "/v1/sessions/" + sess.ID + "/spans")
		if err != nil {
			t.Fatal(err)
		}
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("spans: status %d", httpResp.StatusCode)
		}
		var all []api.Span
		dec := json.NewDecoder(httpResp.Body)
		for {
			var sp api.Span
			if err := dec.Decode(&sp); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("spans: decode: %v", err)
			}
			all = append(all, sp)
		}
		httpResp.Body.Close()
		mine = mine[:0]
		for _, sp := range all {
			if sp.RequestID == reqID {
				mine = append(mine, sp)
			}
		}
		names := make(map[string]bool)
		for _, sp := range mine {
			names[sp.Name] = true
		}
		if names["http.request"] && names["actor.queue"] && names["job"] &&
			names["runner.cell"] && names["sim.advance"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("span tree incomplete for request %s: have %v", reqID, names)
		}
		time.Sleep(5 * time.Millisecond)
	}

	byID := make(map[int64]api.Span, len(mine))
	var root api.Span
	for _, sp := range mine {
		byID[sp.ID] = sp
		if sp.Name == "http.request" {
			root = sp
		}
	}
	if root.ID == 0 {
		t.Fatal("no http.request root span")
	}
	if root.Parent != 0 {
		t.Fatalf("root span has parent %d", root.Parent)
	}
	if want := "POST /v1/sessions/" + sess.ID + "/run"; root.Detail != want {
		t.Fatalf("root span detail = %q, want %q", root.Detail, want)
	}
	// Every non-root span must reach the root through parent links within
	// the request's own span set — that is what "connected tree" means.
	for _, sp := range mine {
		if sp.ID == root.ID {
			continue
		}
		hops := 0
		cur := sp
		for cur.ID != root.ID {
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %d (%s) parent %d not in request's span set", sp.ID, sp.Name, cur.Parent)
			}
			cur = parent
			if hops++; hops > 10 {
				t.Fatalf("span %d (%s): parent chain does not terminate", sp.ID, sp.Name)
			}
		}
		if sp.Session != sess.ID {
			t.Errorf("span %d (%s) session = %q, want %q", sp.ID, sp.Name, sp.Session, sess.ID)
		}
	}
	// Shape: job under root, cell under job, every sim.advance under the
	// cell, and the queue wait under the job it admitted.
	find := func(name string) api.Span {
		for _, sp := range mine {
			if sp.Name == name {
				return sp
			}
		}
		t.Fatalf("no %s span", name)
		return api.Span{}
	}
	jobSpan, cell, queue := find("job"), find("runner.cell"), find("actor.queue")
	if jobSpan.Parent != root.ID {
		t.Errorf("job parent = %d, want root %d", jobSpan.Parent, root.ID)
	}
	if cell.Parent != jobSpan.ID {
		t.Errorf("runner.cell parent = %d, want job %d", cell.Parent, jobSpan.ID)
	}
	if queue.Parent != jobSpan.ID {
		t.Errorf("actor.queue parent = %d, want job %d", queue.Parent, jobSpan.ID)
	}
	if jobSpan.Job == "" || cell.Job != jobSpan.Job {
		t.Errorf("job correlation broken: job span %q, cell %q", jobSpan.Job, cell.Job)
	}
	var advTicks uint64
	for _, sp := range mine {
		if sp.Name != "sim.advance" {
			continue
		}
		if sp.Parent != cell.ID {
			t.Errorf("sim.advance %d parent = %d, want cell %d", sp.ID, sp.Parent, cell.ID)
		}
		advTicks += sp.Ticks
	}
	if advTicks == 0 || cell.Ticks != advTicks {
		t.Errorf("tick accounting: cell %d, sum of commits %d", cell.Ticks, advTicks)
	}

	// The access log must carry the same request ID for the run request.
	var logged bool
	for !logged && !time.Now().After(deadline) {
		for _, line := range strings.Split(accessLog.String(), "\n") {
			if line == "" {
				continue
			}
			var rec struct {
				RequestID string `json:"request_id"`
				Path      string `json:"path"`
				Session   string `json:"session"`
				Status    int    `json:"status"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("access log line %q: %v", line, err)
			}
			if rec.RequestID == reqID {
				logged = true
				if !strings.HasSuffix(rec.Path, "/run") || rec.Session != sess.ID {
					t.Errorf("access-log record for %s: %+v", reqID, rec)
				}
			}
		}
		if !logged {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !logged {
		t.Fatalf("no access-log line with request_id %s:\n%s", reqID, accessLog.String())
	}
}

// TestSLOQuantileAccuracy replays a known latency distribution into a
// session's request tracker and checks the /slo endpoint's p50/p99/p999
// against the exact sorted-sample quantiles (1% relative budget, the
// histogram's design bound).
func TestSLOQuantileAccuracy(t *testing.T) {
	f, _ := testFleet(t, Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	sess := mustCreate(t, f, api.CreateSessionRequest{Policy: "optimal"})
	s, err := f.lookup(sess.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Log-normal body with a deliberate 100x straggler tail, like real
	// request latencies.
	rng := rand.New(rand.NewSource(7))
	now := f.cfg.Clock()
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		d := 2e6 * math.Exp(0.6*rng.NormFloat64()) // ~2ms body
		if rng.Float64() < 0.01 {
			d *= 100
		}
		samples = append(samples, d)
		s.reqSLO.Observe(time.Duration(d), false, now)
	}
	sort.Float64s(samples)
	exact := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		return samples[rank-1] / 1e9 // the wire reports seconds
	}

	var slo api.SLO
	doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/sessions/"+sess.ID+"/slo", nil, &slo)
	if slo.Requests.Count != 20000 {
		t.Fatalf("count = %d, want 20000", slo.Requests.Count)
	}
	for _, tc := range []struct {
		name string
		q    float64
		got  float64
	}{
		{"p50", 0.50, slo.Requests.P50},
		{"p99", 0.99, slo.Requests.P99},
		{"p999", 0.999, slo.Requests.P999},
	} {
		want := exact(tc.q)
		relErr := math.Abs(tc.got-want) / want
		t.Logf("%s: got %.6fs exact %.6fs (err %.3f%%)", tc.name, tc.got, want, 100*relErr)
		if relErr > 0.01 {
			t.Errorf("%s = %.6fs, exact %.6fs: relative error %.3f%% exceeds 1%%",
				tc.name, tc.got, want, 100*relErr)
		}
	}
	// The windowed view saw the same (single-window) era.
	if slo.WindowRequests.Count == 0 {
		t.Error("windowed request view is empty")
	}
}

// TestSpansEndpointWraparound drives the ring past capacity and checks the
// HTTP surface signals the truncation instead of silently skipping spans.
func TestSpansEndpointWraparound(t *testing.T) {
	f, _ := testFleet(t, Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	sess := mustCreate(t, f, api.CreateSessionRequest{Policy: "optimal"})
	s, err := f.lookup(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	// An 8-slot ring in place of the default, so 20 spans wrap it.
	s.spans = telemetry.NewSpanRing(8)
	for i := 0; i < 20; i++ {
		s.spans.Append(telemetry.Span{Name: fmt.Sprintf("op-%d", i)})
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + sess.ID + "/spans?since=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Span-Truncated"); got != "true" {
		t.Fatalf("X-Span-Truncated = %q, want true (cursor 2 fell out of an 8-slot ring)", got)
	}
	if got := resp.Header.Get("X-Span-Next"); got != "20" {
		t.Errorf("X-Span-Next = %q, want 20", got)
	}
	lines := strings.Count(string(body), "\n")
	if lines != 8 {
		t.Errorf("got %d spans, want the 8 retained", lines)
	}

	// A cursor inside the retained window is clean.
	resp, err = ts.Client().Get(ts.URL + "/v1/sessions/" + sess.ID + "/spans?since=15")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Span-Truncated"); got != "false" {
		t.Errorf("X-Span-Truncated = %q for in-window cursor, want false", got)
	}
}

// TestObservabilityDisabled: with NoTrace the span and SLO surfaces reject
// cleanly rather than returning empty data that looks real.
func TestObservabilityDisabled(t *testing.T) {
	f, _ := testFleet(t, Config{NoTrace: true})
	sess := mustCreate(t, f, api.CreateSessionRequest{Policy: "optimal"})
	if _, _, _, err := f.Spans(sess.ID, 0); err == nil || !strings.Contains(err.Error(), "tracing disabled") {
		t.Errorf("Spans with NoTrace: err = %v, want tracing-disabled", err)
	}
	if _, err := f.SLO(sess.ID); err == nil || !strings.Contains(err.Error(), "tracing disabled") {
		t.Errorf("SLO with NoTrace: err = %v, want tracing-disabled", err)
	}
	// And the run path still works without any instrumentation.
	if _, err := f.Submit(sess.ID, api.SubmitRequest{Benchmark: "CG", Threads: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunSync(context.Background(), sess.ID, api.RunRequest{Seconds: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestReadyzSplitsFromHealthz: liveness stays 200 through a drain while
// readiness flips to 503 with a Retry-After hint.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	f, _ := testFleet(t, Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	c := ts.Client()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := c.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s before drain: status %d", path, resp.StatusCode)
		}
	}

	if err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Errorf("healthz during drain: status %d body %q, want 200 + draining", resp.StatusCode, body)
	}

	resp, err = c.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("readyz 503 carries no Retry-After")
	}
}
