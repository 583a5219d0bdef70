package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
)

// submitMix creates a session with the standard mixed workload loaded
// but not yet advanced, so tests control how (and how concurrently) the
// session steps.
func submitMix(t *testing.T, f *Fleet, policy string) api.Session {
	t.Helper()
	s := mustCreate(t, f, api.CreateSessionRequest{Model: "xgene3", Policy: policy})
	for _, sub := range []api.SubmitRequest{
		{Benchmark: "CG", Threads: 8},
		{Benchmark: "LU", Threads: 4},
		{Benchmark: "lbm", Threads: 1},
	} {
		if _, err := f.Submit(s.ID, sub); err != nil {
			t.Fatalf("Submit %s: %v", sub.Benchmark, err)
		}
	}
	return s
}

// TestConcurrentRunsMatchSerial drives several identical sessions
// through one fleet concurrently and checks each against a serial run of
// the same workload on that fleet: sessions share no simulator state, so
// integer state and energy bits must both be exact.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	f, _ := testFleet(t, Config{Workers: 8})
	ss := submitMix(t, f, "optimal")
	want, err := f.RunSync(context.Background(), ss.ID, api.RunRequest{Seconds: 60})
	if err != nil {
		t.Fatalf("serial RunSync: %v", err)
	}

	const n = 4
	ids := make([]string, n)
	for i := range ids {
		ids[i] = submitMix(t, f, "optimal").ID
	}
	got := make([]api.RunResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			got[i], errs[i] = f.RunSync(context.Background(), id, api.RunRequest{Seconds: 60})
		}(i, id)
	}
	wg.Wait()

	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent RunSync %d: %v", i, errs[i])
		}
		if got[i].Now != want.Now || got[i].Ticks != want.Ticks || got[i].Emergencies != want.Emergencies {
			t.Errorf("session %d integer state diverged: got %+v want %+v", i, got[i], want)
		}
		if math.Float64bits(got[i].EnergyJ) != math.Float64bits(want.EnergyJ) {
			t.Errorf("session %d energy diverged: got %v want %v", i, got[i].EnergyJ, want.EnergyJ)
		}
	}
}

// soloAdvance runs one branch machine by itself, the way RunFor or
// RunUntilIdle would; not reaching idle within the budget is a what-if
// outcome, not a failure. It is kept apart from advanceMachine so the
// oracle does not share the code it checks.
func soloAdvance(ctx context.Context, m *sim.Machine, seconds float64, untilIdle bool) error {
	if untilIdle {
		err := m.RunUntilIdleContext(ctx, seconds)
		if errors.Is(err, sim.ErrNotIdle) {
			return nil
		}
		return err
	}
	return m.RunForContext(ctx, seconds)
}

// soloBranches is the what-if oracle: each branch restored, overridden
// and advanced alone.
func soloBranches(t *testing.T, st *snapshot.SessionState, specs []branchSpec, seconds float64, untilIdle bool) []api.WhatIfBranch {
	t.Helper()
	out := branchReports(st, specs)
	for i, sp := range specs {
		rig, err := buildBranch(st, sp)
		if err != nil {
			t.Fatalf("buildBranch %s: %v", sp.name, err)
		}
		if err := soloAdvance(context.Background(), rig.m, seconds, untilIdle); err != nil {
			t.Fatalf("solo advance %s: %v", sp.name, err)
		}
		rig.report(&out[i])
	}
	return out
}

// sameBranches checks two what-if branch lists agree bit for bit,
// integers and energies alike.
func sameBranches(t *testing.T, label string, got, want []api.WhatIfBranch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: branch counts differ: %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Error != nil || w.Error != nil {
			t.Fatalf("%s: branch %s failed: got %v want %v", label, g.Name, g.Error, w.Error)
		}
		if g.Name != w.Name || g.Policy != w.Policy {
			t.Fatalf("%s: branch order diverged: %s vs %s", label, g.Name, w.Name)
		}
		if g.Ticks != w.Ticks || g.Now != w.Now || g.Seconds != w.Seconds ||
			g.Completed != w.Completed || g.Running != w.Running || g.Pending != w.Pending ||
			g.Emergencies != w.Emergencies || g.VoltageMV != w.VoltageMV ||
			g.MakespanS != w.MakespanS || g.P50RuntimeS != w.P50RuntimeS || g.P99RuntimeS != w.P99RuntimeS {
			t.Errorf("%s: branch %s state diverged:\ngot  %+v\nwant %+v", label, g.Name, g, w)
		}
		if math.Float64bits(g.EnergyJ) != math.Float64bits(w.EnergyJ) {
			t.Errorf("%s: branch %s energy diverged: %v vs %v", label, g.Name, g.EnergyJ, w.EnergyJ)
		}
	}
}

// TestWhatIfMatchesSolo checks the what-if against the solo oracle for
// a fixed window and a run-until-idle budget, and that the report
// carries the Batch block.
func TestWhatIfMatchesSolo(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "optimal")
	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	st, ok := f.snaps.Get(snap.ID)
	if !ok {
		t.Fatalf("snapshot %s not stored", snap.ID)
	}
	specs := make([]branchSpec, 0, 4)
	for _, p := range []string{"baseline", "safe-vmin", "placement", "optimal"} {
		sp, err := parseBranchSpec(api.WhatIfBranchSpec{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}

	for _, tc := range []struct {
		seconds   float64
		untilIdle bool
	}{{60, false}, {3600, true}} {
		got, err := f.WhatIf(context.Background(), s.ID, api.WhatIfRequest{
			SnapshotID: snap.ID, Seconds: tc.seconds, UntilIdle: tc.untilIdle,
		})
		if err != nil {
			t.Fatalf("WhatIf: %v", err)
		}
		if got.Batch == nil {
			t.Fatal("report is missing the Batch block")
		}
		if got.Batch.Branches != len(got.Branches) || got.Batch.Ticks == 0 || got.Batch.SpeedupEst != 1 {
			t.Errorf("bad Batch block: %+v", got.Batch)
		}

		solo := soloBranches(t, st, specs, tc.seconds, tc.untilIdle)
		sameBranches(t, fmt.Sprintf("what-if vs solo (until idle %v)", tc.untilIdle), got.Branches, solo)
		oracle := api.WhatIfReport{Branches: solo}
		fillBests(&oracle)
		if got.BestEnergy != oracle.BestEnergy || got.BestPerf != oracle.BestPerf {
			t.Errorf("winners diverged: what-if (%s, %s) vs solo (%s, %s)",
				got.BestEnergy, got.BestPerf, oracle.BestEnergy, oracle.BestPerf)
		}
		if tc.untilIdle {
			for _, b := range got.Branches {
				if b.Running != 0 || b.Pending != 0 {
					t.Errorf("branch %s not idle after an until-idle what-if: %+v", b.Name, b)
				}
			}
		}
	}
}

// countdownCtx cancels itself on its n-th Err call. The simulator checks
// the context once per commit, so the cancellation lands on the same
// commit every time the same what-if runs.
type countdownCtx struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	n      int64
}

func newCountdownCtx(n int64) *countdownCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &countdownCtx{Context: ctx, cancel: cancel, n: n}
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestWhatIfCancelMidWindow cancels a simulated what-if halfway through
// its commits. The branches finished before the cancellation keep their
// reports, every later branch carries the cancellation, the pool job
// retires, and the session then runs exactly like an untouched twin.
func TestWhatIfCancelMidWindow(t *testing.T) {
	f, _ := testFleet(t, Config{Workers: 1})
	s := seedSession(t, f, "optimal")
	twin := seedSession(t, f, "optimal")
	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	req := api.WhatIfRequest{SnapshotID: snap.ID, Seconds: 60}

	// A countdown that never fires counts the context checks of a full
	// what-if; the next one cancels halfway through them.
	full := newCountdownCtx(-1)
	want, err := f.WhatIf(full, s.ID, req)
	if err != nil {
		t.Fatalf("uncancelled WhatIf: %v", err)
	}
	checks := full.calls.Load()
	if checks < 8 {
		t.Fatalf("a 60 s what-if made only %d context checks", checks)
	}
	got, err := f.WhatIf(newCountdownCtx(checks/2), s.ID, req)
	if err != nil {
		t.Fatalf("cancelled WhatIf: %v", err)
	}
	done, cancelled := 0, 0
	for i, b := range got.Branches {
		if b.Error == nil {
			if cancelled > 0 {
				t.Errorf("branch %s finished after an earlier branch was cancelled", b.Name)
			}
			sameBranches(t, "finished before the cancellation", got.Branches[i:i+1], want.Branches[i:i+1])
			done++
			continue
		}
		if b.Error.Code != api.CodeCanceled {
			t.Errorf("branch %s error = %+v, want code %q", b.Name, b.Error, api.CodeCanceled)
		}
		cancelled++
	}
	if done == 0 || cancelled == 0 {
		t.Fatalf("cancellation did not land mid-window: %d finished, %d cancelled", done, cancelled)
	}
	if got.Batch == nil || got.Batch.Ticks >= want.Batch.Ticks {
		t.Errorf("cancelled Batch block %+v, uncancelled %+v", got.Batch, want.Batch)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.pool.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the cancelled what-if's pool job never retired (%d pending)", f.pool.Pending())
		}
		time.Sleep(time.Millisecond)
	}

	run := api.RunRequest{Seconds: 60}
	after, err := f.RunSync(context.Background(), s.ID, run)
	if err != nil {
		t.Fatalf("RunSync after the cancelled what-ifs: %v", err)
	}
	ref, err := f.RunSync(context.Background(), twin.ID, run)
	if err != nil {
		t.Fatalf("twin RunSync: %v", err)
	}
	if after.Now != ref.Now || after.Ticks != ref.Ticks || after.Emergencies != ref.Emergencies {
		t.Errorf("session diverged from its twin: got %+v want %+v", after, ref)
	}
	if math.Float64bits(after.EnergyJ) != math.Float64bits(ref.EnergyJ) {
		t.Errorf("session energy diverged from its twin: %v vs %v", after.EnergyJ, ref.EnergyJ)
	}
}

// TestBatchMetricsExported checks the what-if scrape surface is
// registered on every fleet and counts work once a what-if runs.
func TestBatchMetricsExported(t *testing.T) {
	names := []string{
		"avfs_whatif_branch_ticks_total",
	}
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "optimal")
	for _, name := range names {
		if _, ok := f.reg.Value(name); !ok {
			t.Errorf("fleet is missing metric %s", name)
		}
	}
	for _, gone := range []string{"avfs_sim_batch_ticks_total", "avfs_sim_batch_sessions", "avfs_sim_batch_shard_size",
		"avfs_sim_batch_shared_ticks_total", "avfs_sim_batch_memo_hits_total", "avfs_sim_batch_memo_misses_total",
		"avfs_surrogate_refinements_total"} {
		if _, ok := f.reg.Value(gone); ok {
			t.Errorf("fleet still exports %s", gone)
		}
	}
	if v, _ := f.reg.Value("avfs_whatif_branch_ticks_total"); v != 0 {
		t.Errorf("avfs_whatif_branch_ticks_total = %v before any what-if, want 0", v)
	}
	rep, err := f.WhatIf(context.Background(), s.ID, api.WhatIfRequest{Seconds: 30})
	if err != nil {
		t.Fatalf("WhatIf: %v", err)
	}
	if v, _ := f.reg.Value("avfs_whatif_branch_ticks_total"); v <= 0 || uint64(v) != rep.Batch.Ticks {
		t.Errorf("avfs_whatif_branch_ticks_total = %v after a what-if, want %d", v, rep.Batch.Ticks)
	}
}

// FuzzWhatIfHTTP posts arbitrary bodies to one seeded session's what-if
// endpoint through the fleet's HTTP handler, each under a 100 ms deadline
// so that long simulated windows exercise cancellation. No body may panic
// the server or draw a 5xx, and every 200 must carry a report with
// finite numbers and one branch per requested spec (the four Table IV
// policies when none are given).
func FuzzWhatIfHTTP(f *testing.F) {
	for _, body := range []string{
		`{"seconds":1e308,"fast":true}`,
		`{"seconds":1e308}`,
		`{"seconds":60}`,
		`{"seconds":60,"fast":true}`,
		`{"seconds":3600,"until_idle":true,"branches":[{"policy":"baseline","power_cap_watts":7},{"placement":"spreaded"},{}]}`,
		`{"seconds":1e6,"until_idle":true,"fast":true,"branches":[{"name":"x","policy":"safe-vmin","placement":"clustered"}]}`,
		`{"snapshot_id":"nope","seconds":1}`,
		`{"seconds":5e-324,"fast":true}`,
		`{"seconds":-1}`,
		``,
		`[`,
	} {
		f.Add([]byte(body))
	}
	fl, _ := testFleet(f, Config{})
	path := "/v1/sessions/" + seedSession(f, fl, "optimal").ID + "/whatif"
	h := fl.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var req api.WhatIfRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("200 for a body the handler could not have decoded: %v", err)
		}
		var rep api.WhatIfReport
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatalf("200 body %q does not decode: %v", rec.Body.Bytes(), err)
		}
		want := len(req.Branches)
		if want == 0 {
			want = 4
		}
		if len(rep.Branches) != want {
			t.Fatalf("%d branches for %d specs", len(rep.Branches), want)
		}
		nums := []float64{rep.BaseNow, rep.Seconds}
		for _, b := range rep.Branches {
			nums = append(nums, b.PowerCapW, b.Now, b.Seconds, b.EnergyJ, b.AvgPowerW,
				b.MakespanS, b.P50RuntimeS, b.P99RuntimeS)
		}
		if bs := rep.Batch; bs != nil {
			nums = append(nums, bs.WallSeconds, bs.TicksPerSec, bs.SpeedupEst)
		}
		for _, v := range nums {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite number in %+v", rep)
			}
		}
	})
}
