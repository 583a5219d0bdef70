package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
)

// TestAdmissionPrecedence pins what Create, Fork and ImportSession answer
// when a new session cannot be admitted: the fleet draining, the fleet
// full, a duplicate id and an invalid id, alone and combined, so the
// order in which each endpoint checks them is pinned too.
func TestAdmissionPrecedence(t *testing.T) {
	// Import payload: the state of a fresh session on another fleet.
	src, _ := testFleet(t, Config{})
	_, payload, err := snapshot.Encode(CaptureSession(t, src, mustCreate(t, src, api.CreateSessionRequest{}).ID))
	if err != nil {
		t.Fatal(err)
	}
	// Every fleet holds "taken" and "s-000001", both created with
	// explicit ids, so the fleet's first minted id (a fork child's)
	// collides with a live session.
	const live = 2
	type op func(f *Fleet, id string) error
	create := func(f *Fleet, id string) error {
		_, err := f.Create(api.CreateSessionRequest{ID: id})
		return err
	}
	fork := func(f *Fleet, parent string) error {
		_, err := f.Fork(parent, api.ForkRequest{})
		return err
	}
	imp := func(f *Fleet, id string) error {
		_, err := f.ImportSession(api.ImportRequest{Session: id, State: payload})
		return err
	}
	const (
		draining = "service: draining: not accepting sessions"
		full     = "service: fleet full: 2 sessions live"
		invalid  = `service: invalid request: session id "bad id" contains ' '`
	)
	cases := []struct {
		name           string
		op             op
		id             string // Create/Import: the new id; Fork: the parent
		draining, full bool
		status         int
		code, message  string
	}{
		{"create/draining", create, "", true, false, 503, api.CodeDraining, draining},
		{"create/full", create, "", false, true, 429, api.CodeFleetFull, full},
		{"create/duplicate", create, "taken", false, false, 409, api.CodeConflict,
			"service: conflict with in-flight transition: session taken already exists"},
		{"create/invalid", create, "bad id", false, false, 400, api.CodeInvalidRequest, invalid},
		{"create/draining+full+invalid", create, "bad id", true, true, 503, api.CodeDraining, draining},
		{"create/full+invalid", create, "bad id", false, true, 429, api.CodeFleetFull, full},

		{"fork/draining", fork, "taken", true, false, 503, api.CodeDraining, draining},
		{"fork/full", fork, "taken", false, true, 429, api.CodeFleetFull, full},
		{"fork/duplicate", fork, "taken", false, false, 409, api.CodeConflict,
			"service: conflict with in-flight transition: session s-000001 already exists"},
		{"fork/invalid", fork, "bad id", false, false, 404, api.CodeSessionNotFound,
			"service: session not found: bad id"},
		{"fork/draining+full", fork, "taken", true, true, 503, api.CodeDraining, draining},
		{"fork/invalid+draining", fork, "bad id", true, true, 404, api.CodeSessionNotFound,
			"service: session not found: bad id"},

		{"import/draining", imp, "new", true, false, 503, api.CodeDraining, draining},
		{"import/full", imp, "new", false, true, 429, api.CodeFleetFull, full},
		{"import/duplicate", imp, "taken", false, false, 409, api.CodeConflict,
			"service: conflict with in-flight transition: session taken already exists"},
		{"import/invalid", imp, "bad id", false, false, 400, api.CodeInvalidRequest, invalid},
		{"import/draining+full+invalid", imp, "bad id", true, true, 400, api.CodeInvalidRequest, invalid},
		{"import/full+duplicate", imp, "taken", false, true, 429, api.CodeFleetFull, full},
		{"import/draining+full+duplicate", imp, "taken", true, true, 503, api.CodeDraining, draining},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			max := 8
			if tc.full {
				max = live
			}
			f, _ := testFleet(t, Config{MaxSessions: max})
			for _, id := range []string{"taken", "s-000001"} {
				mustCreate(t, f, api.CreateSessionRequest{ID: id})
			}
			if tc.draining {
				if err := f.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			err := tc.op(f, tc.id)
			if err == nil {
				t.Fatal("admitted, want a refusal")
			}
			status, code, _ := mapError(err)
			if status != tc.status || code != tc.code || err.Error() != tc.message {
				t.Errorf("got %d %s %q\nwant %d %s %q", status, code, err.Error(), tc.status, tc.code, tc.message)
			}
			if n := f.SessionCount(); n != live {
				t.Errorf("%d sessions live after the refusal, want %d", n, live)
			}
		})
	}
}

// TestRunSyncRejectsNonPositiveSecondsFirst: a sync run of zero seconds
// is an invalid request even while the pool is saturated; it never
// reaches the pool, so it neither answers busy nor counts as a run.
func TestRunSyncRejectsNonPositiveSecondsFirst(t *testing.T) {
	f, _ := testFleet(t, Config{Workers: 1, Queue: 1})
	var sess [3]api.Session
	for i := range sess {
		sess[i] = mustCreate(t, f, api.CreateSessionRequest{})
		StepPerTick(t, f, sess[i].ID)
		if _, err := f.Submit(sess[i].ID, api.SubmitRequest{Benchmark: "CG", Threads: 8}); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the single worker, wait until it runs, then fill the queue.
	j0, err := f.RunAsync(context.Background(), sess[0].ID, api.RunRequest{Seconds: 86400})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if _, err := f.CancelJob(sess[0].ID, j0.ID); err != nil {
			t.Fatal(err)
		}
		waitJob(t, f, sess[0].ID, j0.ID, 60*time.Second)
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		jb, err := f.Job(sess[0].ID, j0.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jb.Status == api.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocking job never started")
		}
	}
	if _, err := f.RunAsync(context.Background(), sess[1].ID, api.RunRequest{Seconds: 1}); err != nil {
		t.Fatalf("queued run: %v", err)
	}
	runs, _ := f.Registry().Value("avfs_fleet_runs_total")

	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/v1/sessions/"+sess[2].ID+"/run", strings.NewReader(`{"seconds":0}`)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"code":"`+api.CodeInvalidRequest+`"`) {
		t.Errorf("zero-second run on a saturated pool = %d %s, want 400 %s", rec.Code, rec.Body.String(), api.CodeInvalidRequest)
	}
	if got, _ := f.Registry().Value("avfs_fleet_runs_total"); got != runs {
		t.Errorf("avfs_fleet_runs_total %v -> %v, want unchanged", runs, got)
	}
}

// TestWhatIfRuntimeQuantilesNearestRank: a simulated what-if reports
// p50/p99 runtimes by the API's nearest-rank rule, the ⌈q·n⌉-th smallest
// sample, as the surrogate tier does. At n = 60 the p99 is the 60th
// smallest; rounding q·n would pick the 59th.
func TestWhatIfRuntimeQuantilesNearestRank(t *testing.T) {
	spec := chip.SpecFor(chip.XGene3)
	st := sim.New(spec).CaptureState()
	const n = 60
	for i := 0; i < n; i++ {
		// Runtimes 1..n s, shuffled in completion order.
		rt := float64((i*7)%n + 1)
		st.Finished = append(st.Finished, sim.Record{ID: i, Bench: "lbm", Threads: 1, Completed: rt})
	}
	st.NextID = n
	m, err := sim.RestoreMachine(spec, st)
	if err != nil {
		t.Fatal(err)
	}
	var out api.WhatIfBranch
	(&branchRig{m: m}).report(&out)
	if out.Completed != n || out.P50RuntimeS != 30 || out.P99RuntimeS != 60 {
		t.Errorf("completed %d, p50 %v, p99 %v; want %d, 30, 60", out.Completed, out.P50RuntimeS, out.P99RuntimeS, n)
	}
}
