package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfs/api"
	"avfs/client"
	"avfs/internal/service"
)

// newServer stands up a fleet behind httptest and a client pointed at it.
func newServer(t *testing.T, cfg service.Config) (*service.Fleet, *client.Client) {
	t.Helper()
	cfg.ReapEvery = -1
	f := service.New(cfg)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(func() {
		ts.Close()
		f.Close()
	})
	c := client.New(ts.URL, ts.Client())
	c.PollInterval = 5 * time.Millisecond
	return f, c
}

// TestEndToEndSessionFlow drives the full v1 surface over real HTTP:
// create → submit CG → run 60 s async → poll the job → read energy,
// processes, trace, and metrics.
func TestEndToEndSessionFlow(t *testing.T) {
	_, c := newServer(t, service.Config{})
	ctx := context.Background()

	s, err := c.CreateSession(ctx, api.CreateSessionRequest{Model: "xgene3", Policy: "optimal"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if s.ID == "" || s.Policy != "optimal" {
		t.Fatalf("bad session: %+v", s)
	}

	p, err := c.Submit(ctx, s.ID, api.SubmitRequest{Benchmark: "CG", Threads: 8})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if p.Benchmark != "CG" || p.Threads != 8 {
		t.Fatalf("bad process: %+v", p)
	}

	job, err := c.RunAsync(ctx, s.ID, 60)
	if err != nil {
		t.Fatalf("RunAsync: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	job, err = c.WaitJob(wctx, s.ID, job.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if job.Status != api.JobDone || job.Result == nil {
		t.Fatalf("job did not finish: %+v", job)
	}
	if math.Abs(job.Result.Now-60) > 1e-6 {
		t.Errorf("job advanced to %v, want 60", job.Result.Now)
	}

	e, err := c.Energy(ctx, s.ID)
	if err != nil {
		t.Fatalf("Energy: %v", err)
	}
	if e.EnergyJ <= 0 || e.AvgPowerW <= 0 {
		t.Errorf("meter did not accumulate: %+v", e)
	}
	if len(e.Breakdown) == 0 {
		t.Error("energy breakdown missing")
	}

	pl, err := c.Processes(ctx, s.ID)
	if err != nil || len(pl.Processes) != 1 {
		t.Fatalf("Processes = %+v, %v", pl, err)
	}

	lines, next, err := c.Trace(ctx, s.ID, 0)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if len(lines) == 0 || next != int64(len(lines)) {
		t.Fatalf("trace: %d lines, next=%d", len(lines), next)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("trace line is not JSON: %v", err)
	}

	for _, id := range []string{"", s.ID} {
		text, err := c.Metrics(ctx, id)
		if err != nil {
			t.Fatalf("Metrics(%q): %v", id, err)
		}
		if !strings.Contains(text, "avfs_") {
			t.Errorf("Metrics(%q) has no avfs_ series:\n%.200s", id, text)
		}
	}

	if err := c.DeleteSession(ctx, s.ID); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	if _, err := c.Session(ctx, s.ID); !errors.Is(err, api.ErrSessionNotFound) {
		t.Fatalf("Session after delete = %v, want ErrSessionNotFound", err)
	}
}

// TestConcurrentSessions32 runs 32 independent sessions in parallel, each
// with its own workload and policy, over one shared server. Under -race
// this exercises the per-session actor serialization and the shared pool.
func TestConcurrentSessions32(t *testing.T) {
	_, c := newServer(t, service.Config{MaxSessions: 64, Workers: 8, Queue: 256})
	policies := []string{"baseline", "safe-vmin", "placement", "optimal"}
	benchmarks := []string{"CG", "MG", "blackscholes", "swaptions"}

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	nows := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			errs[i] = func() error {
				s, err := c.CreateSession(ctx, api.CreateSessionRequest{Policy: policies[i%len(policies)]})
				if err != nil {
					return fmt.Errorf("create: %w", err)
				}
				if _, err := c.Submit(ctx, s.ID, api.SubmitRequest{
					Benchmark: benchmarks[i%len(benchmarks)], Threads: 1 + i%4,
				}); err != nil {
					return fmt.Errorf("submit: %w", err)
				}
				res, err := c.Run(ctx, s.ID, 20)
				if err != nil {
					return fmt.Errorf("run: %w", err)
				}
				nows[i] = res.Now
				if _, err := c.Energy(ctx, s.ID); err != nil {
					return fmt.Errorf("energy: %w", err)
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	for i, now := range nows {
		if errs[i] == nil && math.Abs(now-20) > 1e-6 {
			t.Errorf("session %d advanced to %v, want 20", i, now)
		}
	}
	l, err := c.ListSessionsPage(context.Background(), client.ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Sessions) != n {
		t.Errorf("fleet holds %d sessions, want %d", len(l.Sessions), n)
	}
}

// TestHTTPErrorContract pins the sentinel → status/code mapping table at
// the wire level.
func TestHTTPErrorContract(t *testing.T) {
	f, c := newServer(t, service.Config{})
	ctx := context.Background()
	s, err := c.CreateSession(ctx, api.CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		call   func() error
		status int
		code   string
		ident  error // optional errors.Is identity check
	}{
		{
			name:   "unknown session",
			call:   func() error { _, err := c.Session(ctx, "s-999999"); return err },
			status: 404, code: "session_not_found", ident: api.ErrSessionNotFound,
		},
		{
			name:   "unknown job",
			call:   func() error { _, err := c.Job(ctx, s.ID, "j-999999"); return err },
			status: 404, code: "job_not_found", ident: api.ErrJobNotFound,
		},
		{
			name: "unknown benchmark",
			call: func() error {
				_, err := c.Submit(ctx, s.ID, api.SubmitRequest{Benchmark: "doom", Threads: 1})
				return err
			},
			status: 404, code: "unknown_benchmark", ident: api.ErrUnknownBenchmark,
		},
		{
			name: "unknown model",
			call: func() error {
				_, err := c.CreateSession(ctx, api.CreateSessionRequest{Model: "z80"})
				return err
			},
			status: 400, code: "unknown_model", ident: api.ErrUnknownModel,
		},
		{
			name:   "unknown policy",
			call:   func() error { _, err := c.SetPolicy(ctx, s.ID, "turbo"); return err },
			status: 400, code: "unknown_policy", ident: api.ErrUnknownPolicy,
		},
		{
			name: "invalid process",
			call: func() error {
				_, err := c.Submit(ctx, s.ID, api.SubmitRequest{Benchmark: "CG", Threads: 0})
				return err
			},
			status: 400, code: "invalid_request", ident: api.ErrInvalidRequest,
		},
		{
			name:   "negative run budget",
			call:   func() error { _, err := c.Run(ctx, s.ID, -5); return err },
			status: 400, code: "invalid_request", ident: api.ErrInvalidRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("call succeeded, want error")
			}
			var apiErr *api.Error
			if !errors.As(err, &apiErr) {
				t.Fatalf("error is %T, want *api.Error: %v", err, err)
			}
			if apiErr.Status != tc.status || apiErr.Code != tc.code {
				t.Errorf("got %d/%s, want %d/%s", apiErr.Status, apiErr.Code, tc.status, tc.code)
			}
			if tc.ident != nil && !errors.Is(err, tc.ident) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.ident)
			}
		})
	}

	// Raw-wire cases the typed client cannot produce.
	base := clientBase(t, f)
	t.Run("malformed body", func(t *testing.T) {
		resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("bad trace offset", func(t *testing.T) {
		resp, err := http.Get(base + "/v1/sessions/" + s.ID + "/trace?since=bogus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
}

// clientBase re-serves the fleet on a fresh listener so raw net/http
// calls can hit it without the typed client.
func clientBase(t *testing.T, f *service.Fleet) string {
	t.Helper()
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// pollEveryTick is a daemon poll period of one default tick: the daemon's
// boundary then ends every batch, so a long run steps one tick at a time
// and takes wall time for a test to act on it mid-run.
const pollEveryTick = 0.01

// TestBackpressureRetryAfter saturates a 1-worker/1-queue fleet and checks
// the 429 + Retry-After contract end to end.
func TestBackpressureRetryAfter(t *testing.T) {
	_, c := newServer(t, service.Config{Workers: 1, Queue: 1})
	ctx := context.Background()

	var ids [3]string
	for i := range ids {
		s, err := c.CreateSession(ctx, api.CreateSessionRequest{PollSeconds: pollEveryTick})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(ctx, s.ID, api.SubmitRequest{Benchmark: "CG", Threads: 8}); err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID
	}
	j0, err := c.RunAsync(ctx, ids[0], 86400)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		jb, err := c.Job(ctx, ids[0], j0.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jb.Status == api.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.RunAsync(ctx, ids[1], 1); err != nil {
		t.Fatal(err)
	}
	_, err = c.RunAsync(ctx, ids[2], 1)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("saturated run = %v, want *api.Error", err)
	}
	if apiErr.Status != 429 || !errors.Is(err, api.ErrBusy) || apiErr.RetryAfterSec <= 0 {
		t.Errorf("saturated run = %+v, want 429 busy with Retry-After", apiErr)
	}
	if _, err := c.CancelJob(ctx, ids[0], j0.ID); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, err := c.WaitJob(wctx, ids[0], j0.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDrainOverHTTP: after Drain, in-flight runs have finished, health
// reports draining, and new work is 503 with Retry-After.
func TestDrainOverHTTP(t *testing.T) {
	f, c := newServer(t, service.Config{})
	ctx := context.Background()
	s, err := c.CreateSession(ctx, api.CreateSessionRequest{PollSeconds: pollEveryTick})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, s.ID, api.SubmitRequest{Benchmark: "CG", Threads: 8}); err != nil {
		t.Fatal(err)
	}
	j, err := c.RunAsync(ctx, s.ID, 1800)
	if err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	if err := f.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	jb, err := c.Job(ctx, s.ID, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jb.Status != api.JobDone || jb.Result == nil || math.Abs(jb.Result.Now-1800) > 1e-6 {
		t.Fatalf("in-flight job after drain = %+v, want done at 1800", jb)
	}

	_, err = c.CreateSession(ctx, api.CreateSessionRequest{})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || !errors.Is(err, api.ErrDraining) {
		t.Errorf("create while draining = %v, want 503 draining", err)
	}
	if apiErr != nil && apiErr.RetryAfterSec <= 0 {
		t.Errorf("draining rejection lacks Retry-After: %+v", apiErr)
	}

	// Liveness vs. readiness split: the draining process is still alive
	// (healthz 200, orchestrators must not restart it) but no longer
	// routable (readyz 503, load balancers stop sending traffic).
	base := clientBase(t, f)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz while draining = %d, want 200 (liveness)", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("healthz body %q should report the draining state", body)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Errorf("Healthz while draining = %v, want nil", err)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("readyz 503 should carry Retry-After")
	}
	err = c.Readyz(ctx)
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Errorf("Readyz while draining = %v, want *api.Error with 503", err)
	}
}

// TestPolicyFlipOverHTTP flips a live session across all four Table IV
// configurations through the wire.
func TestPolicyFlipOverHTTP(t *testing.T) {
	_, c := newServer(t, service.Config{})
	ctx := context.Background()
	s, err := c.CreateSession(ctx, api.CreateSessionRequest{Policy: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, s.ID, api.SubmitRequest{Benchmark: "CG", Threads: 4}); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"safe-vmin", "placement", "optimal", "baseline"} {
		snap, err := c.SetPolicy(ctx, s.ID, policy)
		if err != nil {
			t.Fatalf("flip to %s: %v", policy, err)
		}
		if snap.Policy != policy {
			t.Errorf("policy = %s, want %s", snap.Policy, policy)
		}
		res, err := c.Run(ctx, s.ID, 5)
		if err != nil {
			t.Fatalf("run under %s: %v", policy, err)
		}
		if res.Emergencies != 0 {
			t.Errorf("%s: %d voltage emergencies", policy, res.Emergencies)
		}
	}
}

// TestCharacterizeOverHTTP drives the characterize endpoint end to end:
// two sessions requesting the identical cell share one dataset through the
// fleet-wide store, and the store's counters show up on fleet /metrics.
func TestCharacterizeOverHTTP(t *testing.T) {
	f, c := newServer(t, service.Config{})
	ctx := context.Background()
	a, err := c.CreateSession(ctx, api.CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateSession(ctx, api.CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}

	req := api.CharacterizeRequest{Threads: 4, Placement: "spreaded", Benchmark: "CG", Trials: 40}
	first, err := c.Characterize(ctx, a.ID, req)
	if err != nil {
		t.Fatalf("Characterize(a): %v", err)
	}
	if first.Source != "computed" || !first.SafeFound || len(first.Levels) == 0 {
		t.Errorf("first characterization implausible: %+v", first)
	}
	second, err := c.Characterize(ctx, b.ID, req)
	if err != nil {
		t.Fatalf("Characterize(b): %v", err)
	}
	if second.Source != "memory" {
		t.Errorf("second session Source = %q, want memory", second.Source)
	}
	if second.SafeVminMV != first.SafeVminMV || second.TotalRuns != first.TotalRuns {
		t.Errorf("cache-served dataset diverges: %+v vs %+v", second, first)
	}

	if _, err := c.Characterize(ctx, a.ID, api.CharacterizeRequest{Trials: -1}); !errors.Is(err, api.ErrInvalidRequest) {
		t.Errorf("negative trials over HTTP = %v, want ErrInvalidRequest", err)
	}
	if _, err := c.Characterize(ctx, a.ID, api.CharacterizeRequest{Benchmark: "doom", Trials: 10}); !errors.Is(err, api.ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark over HTTP = %v, want ErrUnknownBenchmark", err)
	}

	resp, err := http.Get(clientBase(t, f) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		`avfs_characterize_cache_hits_total{tier="memory"} 1`,
		"avfs_characterize_cache_misses_total 1",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("fleet /metrics missing %q", metric)
		}
	}
}

// TestWaitJobHonorsRetryAfter is the 429 regression test: a saturated
// server answering the job poll with 429 + Retry-After must make WaitJob
// back off per the hint (capped at MaxRetryAfter) and keep polling — not
// bail out, and not hammer at PollInterval.
func TestWaitJobHonorsRetryAfter(t *testing.T) {
	const busyPolls = 3
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/jobs/j-1") {
			t.Errorf("unexpected request: %s %s", r.Method, r.URL.Path)
			http.NotFound(w, r)
			return
		}
		n := polls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if n <= busyPolls {
			// What the fleet sends when the run pool is saturated.
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"code":"busy","message":"run queue full"}`)
			return
		}
		json.NewEncoder(w).Encode(api.Job{ID: "j-1", Status: api.JobDone})
	}))
	defer ts.Close()

	c := client.New(ts.URL, ts.Client())
	c.PollInterval = time.Millisecond
	c.MaxRetryAfter = 20 * time.Millisecond

	start := time.Now()
	job, err := c.WaitJob(context.Background(), "s-1", "j-1")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("WaitJob through 429s: %v", err)
	}
	if job.Status != api.JobDone {
		t.Fatalf("job = %+v, want done", job)
	}
	if got := polls.Load(); got != busyPolls+1 {
		t.Errorf("server saw %d polls, want %d (every 429 retried exactly once)", got, busyPolls+1)
	}
	// Each 429 waits min(Retry-After, MaxRetryAfter) = 20 ms: the total
	// must show real backoff, yet stay far under the uncapped 3 s.
	if elapsed < time.Duration(busyPolls)*c.MaxRetryAfter {
		t.Errorf("finished in %v; backoff shorter than %d x %v", elapsed, busyPolls, c.MaxRetryAfter)
	}
	if elapsed > time.Second {
		t.Errorf("finished in %v; the MaxRetryAfter cap did not apply", elapsed)
	}

	// A context cancelled mid-backoff unblocks promptly.
	polls.Store(0)
	c.MaxRetryAfter = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.WaitJob(ctx, "s-1", "j-1"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled WaitJob = %v, want deadline exceeded", err)
	}
}

// TestSnapshotForkWhatIfOverHTTP drives the branching surface end to end:
// snapshot a mid-run session, fork a child, and run a what-if comparison.
func TestSnapshotForkWhatIfOverHTTP(t *testing.T) {
	_, c := newServer(t, service.Config{})
	ctx := context.Background()

	s, err := c.CreateSession(ctx, api.CreateSessionRequest{Policy: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, s.ID, api.SubmitRequest{Benchmark: "CG", Threads: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, s.ID, 30); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Snapshot(ctx, s.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.ID == "" || snap.Now != 30 {
		t.Fatalf("bad snapshot: %+v", snap)
	}

	fork, err := c.Fork(ctx, s.ID, api.ForkRequest{SnapshotID: snap.ID, Policy: "optimal"})
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if fork.Session.Policy != "optimal" || fork.Session.Now != 30 {
		t.Fatalf("bad fork: %+v", fork.Session)
	}

	rep, err := c.WhatIf(ctx, s.ID, api.WhatIfRequest{SnapshotID: snap.ID, Seconds: 30})
	if err != nil {
		t.Fatalf("WhatIf: %v", err)
	}
	if rep.SnapshotID != snap.ID || len(rep.Branches) != 4 || rep.BestEnergy == "" {
		t.Fatalf("bad report: %+v", rep)
	}
	for _, br := range rep.Branches {
		if br.Error != nil {
			t.Errorf("branch %q: %+v", br.Name, br.Error)
		}
	}

	if _, err := c.Fork(ctx, s.ID, api.ForkRequest{SnapshotID: "nope"}); !errors.Is(err, api.ErrSnapshotNotFound) {
		t.Errorf("bogus fork = %v, want ErrSnapshotNotFound", err)
	}
}

// TestResponseBodyBound: a success body longer than 64 MiB fails the call
// with *http.MaxBytesError instead of being buffered whole.
func TestResponseBodyBound(t *testing.T) {
	const bound = 64 << 20
	chunk := []byte(strings.Repeat("a", 1<<20))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// One JSON string streamed past the bound.
		_, _ = io.WriteString(w, `{"id":"`)
		for n := 0; n <= bound; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		_, _ = io.WriteString(w, `"}`)
	}))
	t.Cleanup(ts.Close)
	_, err := client.New(ts.URL, ts.Client()).Session(context.Background(), "s-big")
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) || tooBig.Limit != bound {
		t.Fatalf("oversized body: error = %v, want *http.MaxBytesError at %d bytes", err, bound)
	}
}

// TestBoundedReadsReuseConnection: typed and text reads through the
// bounded body still hand their connection back for keep-alive.
func TestBoundedReadsReuseConnection(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			_, _ = io.WriteString(w, "# TYPE avfs_up gauge\navfs_up 1\n")
			return
		}
		_, _ = io.WriteString(w, `{"id":"s-1"}`+"\n")
	}))
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := c.Session(ctx, "s-1"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Metrics(ctx, ""); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("100 sequential calls opened %d connections, want 1", n)
	}
}
