package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/telemetry/export"
)

// seedSession creates a session with the standard mixed workload and
// advances it to a mid-run instant worth branching from.
func seedSession(t testing.TB, f *Fleet, policy string) api.Session {
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
	if _, err := f.RunSync(context.Background(), s.ID, api.RunRequest{Seconds: 30}); err != nil {
		t.Fatalf("RunSync: %v", err)
	}
	return s
}

func TestSnapshotCapture(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "optimal")

	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.ID == "" || snap.Session != s.ID || snap.Model != "xgene3" || snap.Policy != "optimal" {
		t.Fatalf("bad snapshot envelope: %+v", snap)
	}
	if snap.Now != 30 || snap.Ticks == 0 || snap.EnergyJ <= 0 || snap.Processes != 3 {
		t.Fatalf("bad snapshot state summary: %+v", snap)
	}

	// Snapshots are content-addressed: the same state yields the same id.
	again, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatalf("second Snapshot: %v", err)
	}
	if again.ID != snap.ID {
		t.Errorf("identical state produced different ids: %s vs %s", snap.ID, again.ID)
	}
}

// TestForkDeterministic is the fork-and-replay contract at the service
// layer: a forked child advanced by D must match the parent advanced by D
// bit for bit — same tick counter, same energy bits, same completions.
func TestForkDeterministic(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "optimal")

	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	fork, err := f.Fork(s.ID, api.ForkRequest{SnapshotID: snap.ID})
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if fork.SnapshotID != snap.ID {
		t.Errorf("fork resolved snapshot %s, want %s", fork.SnapshotID, snap.ID)
	}
	child := fork.Session
	if child.ID == s.ID {
		t.Fatal("fork returned the parent session")
	}
	if child.Ticks != snap.Ticks ||
		math.Float64bits(child.Now) != math.Float64bits(snap.Now) ||
		math.Float64bits(child.EnergyJ) != math.Float64bits(snap.EnergyJ) {
		t.Fatalf("child not born at the snapshot point: %+v vs %+v", child, snap)
	}

	ctx := context.Background()
	pr, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 90})
	if err != nil {
		t.Fatalf("parent RunSync: %v", err)
	}
	cr, err := f.RunSync(ctx, child.ID, api.RunRequest{Seconds: 90})
	if err != nil {
		t.Fatalf("child RunSync: %v", err)
	}
	if pr.Ticks != cr.Ticks ||
		math.Float64bits(pr.Now) != math.Float64bits(cr.Now) ||
		math.Float64bits(pr.EnergyJ) != math.Float64bits(cr.EnergyJ) ||
		pr.Emergencies != cr.Emergencies {
		t.Fatalf("fork replay diverged:\nparent %+v\nchild  %+v", pr, cr)
	}
	pg, _ := f.Get(s.ID)
	cg, _ := f.Get(child.ID)
	if pg.Done != cg.Done || pg.Running != cg.Running || pg.VoltageMV != cg.VoltageMV {
		t.Fatalf("fork replay state diverged:\nparent %+v\nchild  %+v", pg, cg)
	}
}

// snapshotStoreMetrics returns the fleet's snapshot-store samples (stored
// sizes, resident entries, fills) in exposition form.
func snapshotStoreMetrics(t *testing.T, f *Fleet) string {
	t.Helper()
	var sb strings.Builder
	if err := export.Prometheus(&sb, f.Registry()); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "avfs_snapshot_") {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		t.Fatal("no avfs_snapshot_ samples exported")
	}
	return strings.Join(out, "\n")
}

// TestUnnamedForkNotStored: a fork that names no snapshot branches from a
// fresh capture, reports no snapshot id and leaves the store untouched;
// a named one stores nothing more either.
func TestUnnamedForkNotStored(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "optimal")
	store := snapshotStoreMetrics(t, f)
	fork, err := f.Fork(s.ID, api.ForkRequest{})
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if fork.SnapshotID != "" {
		t.Errorf("unnamed fork reported snapshot %q", fork.SnapshotID)
	}
	if got := snapshotStoreMetrics(t, f); got != store {
		t.Errorf("an unnamed fork moved the snapshot store:\n%s\n->\n%s", store, got)
	}
	if p, _ := f.Get(s.ID); fork.Session.Ticks != p.Ticks ||
		math.Float64bits(fork.Session.EnergyJ) != math.Float64bits(p.EnergyJ) {
		t.Errorf("child not born at the parent's instant: %+v vs %+v", fork.Session, p)
	}

	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	store = snapshotStoreMetrics(t, f)
	if _, err := f.Fork(s.ID, api.ForkRequest{SnapshotID: snap.ID}); err != nil {
		t.Fatal(err)
	}
	if got := snapshotStoreMetrics(t, f); got != store {
		t.Errorf("a named fork moved the snapshot store:\n%s\n->\n%s", store, got)
	}
}

// TestStoredSnapshotIsImmutable: fast and simulated what-ifs and forks
// from one stored id, run concurrently while the live session keeps
// advancing, leave the stored state as it was put: it still encodes to
// its id. So does an unstored capture: it aliases nothing the session
// goes on to change.
func TestStoredSnapshotIsImmutable(t *testing.T) {
	f, _ := testFleet(t, Config{Workers: 2})
	s := seedSession(t, f, "optimal")
	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	live, err := f.lookup(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	live.mu.Lock()
	unnamed, err := live.captureStateLocked()
	live.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	unnamedID, _, err := snapshot.Encode(unnamed)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	spawn := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errs <- err
			}
		}()
	}
	spawn(func() error {
		_, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 60})
		return err
	})
	for i := 0; i < 2; i++ {
		for _, fast := range []bool{false, true} {
			spawn(func() error {
				_, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{SnapshotID: snap.ID, Seconds: 20, Fast: fast})
				return err
			})
		}
		spawn(func() error {
			fork, err := f.Fork(s.ID, api.ForkRequest{SnapshotID: snap.ID})
			if err != nil {
				return err
			}
			_, err = f.RunSync(ctx, fork.Session.ID, api.RunRequest{Seconds: 20})
			return err
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st, ok := f.snaps.Get(snap.ID)
	if !ok {
		t.Fatal("stored snapshot lost")
	}
	if id, _, err := snapshot.Encode(st); err != nil || id != snap.ID {
		t.Errorf("stored state now encodes to %s (%v), want %s", id, err, snap.ID)
	}
	if id, _, err := snapshot.Encode(unnamed); err != nil || id != unnamedID {
		t.Errorf("unstored capture now encodes to %s (%v), want %s", id, err, unnamedID)
	}
	if p, _ := f.Get(s.ID); p.Ticks == snap.Ticks {
		t.Error("the live session did not advance past the snapshot")
	}
}

// fastWhatIfAllocs bounds the allocations of a four-branch fast what-if
// on a stored id: the report, the branch specs and the surrogate's
// process list, 14 when measured (a decode of the stored state adds 96).
const fastWhatIfAllocs = 30

// TestStoredSnapshotLookupsDoNotParse: a memory-resident snapshot is
// served without allocating, so without decoding, and a fast what-if on
// it costs the surrogate's work alone.
func TestStoredSnapshotLookupsDoNotParse(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "baseline")
	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { f.snaps.Get(snap.ID) }); n != 0 {
		t.Errorf("Store.Get allocates %v times per call, want 0", n)
	}
	req := api.WhatIfRequest{SnapshotID: snap.ID, Seconds: 60, Fast: true}
	ctx := context.Background()
	if _, err := f.WhatIf(ctx, s.ID, req); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { f.WhatIf(ctx, s.ID, req) }); n > fastWhatIfAllocs {
		t.Errorf("fast what-if on a stored id allocates %v times, want at most %d", n, fastWhatIfAllocs)
	}
}

func TestForkPolicyOverride(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "optimal")

	fork, err := f.Fork(s.ID, api.ForkRequest{Policy: "baseline"})
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if fork.Session.Policy != "baseline" {
		t.Errorf("child policy = %q, want baseline", fork.Session.Policy)
	}
	if p, _ := f.Get(s.ID); p.Policy != "optimal" {
		t.Errorf("fork mutated the parent policy: %q", p.Policy)
	}
	if _, err := f.Fork(s.ID, api.ForkRequest{Policy: "turbo"}); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unknown child policy = %v, want ErrUnknownPolicy", err)
	}
}

func TestForkSnapshotNotFound(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "optimal")
	if _, err := f.Fork(s.ID, api.ForkRequest{SnapshotID: "deadbeef"}); !errors.Is(err, ErrSnapshotNotFound) {
		t.Fatalf("bogus snapshot id = %v, want ErrSnapshotNotFound", err)
	}
	if _, err := f.WhatIf(context.Background(), s.ID, api.WhatIfRequest{
		SnapshotID: "deadbeef", Seconds: 10,
	}); !errors.Is(err, ErrSnapshotNotFound) {
		t.Fatalf("what-if bogus snapshot id = %v, want ErrSnapshotNotFound", err)
	}
}

func TestForkRespectsFleetCap(t *testing.T) {
	f, _ := testFleet(t, Config{MaxSessions: 1})
	s := seedSession(t, f, "optimal")
	if _, err := f.Fork(s.ID, api.ForkRequest{}); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("fork past the cap = %v, want ErrFleetFull", err)
	}
}

// TestWhatIfDefaultBranches: one call compares all four Table IV policies
// from the same branch point and picks winners.
func TestWhatIfDefaultBranches(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "baseline")

	store := snapshotStoreMetrics(t, f)
	rep, err := f.WhatIf(context.Background(), s.ID, api.WhatIfRequest{Seconds: 60})
	if err != nil {
		t.Fatalf("WhatIf: %v", err)
	}
	if rep.Session != s.ID || rep.SnapshotID != "" || rep.BaseNow != 30 || rep.Seconds != 60 {
		t.Fatalf("bad report envelope: %+v", rep)
	}
	if got := snapshotStoreMetrics(t, f); got != store {
		t.Errorf("an unnamed what-if moved the snapshot store:\n%s\n->\n%s", store, got)
	}
	want := []string{"baseline", "safe-vmin", "placement", "optimal"}
	if len(rep.Branches) != len(want) {
		t.Fatalf("got %d branches, want %d", len(rep.Branches), len(want))
	}
	for i, br := range rep.Branches {
		if br.Name != want[i] || br.Policy != want[i] {
			t.Errorf("branch %d = %q/%q, want %q", i, br.Name, br.Policy, want[i])
		}
		if br.Error != nil {
			t.Errorf("branch %q failed: %+v", br.Name, br.Error)
			continue
		}
		if br.Seconds != 60 || br.EnergyJ <= 0 || br.AvgPowerW <= 0 || br.VoltageMV <= 0 {
			t.Errorf("branch %q metrics: %+v", br.Name, br)
		}
		if math.Float64bits(br.Now) != math.Float64bits(rep.BaseNow+60) {
			t.Errorf("branch %q ended at %v, want %v", br.Name, br.Now, rep.BaseNow+60)
		}
	}
	if rep.BestEnergy == "" || rep.BestPerf == "" {
		t.Fatalf("winners not picked: %+v", rep)
	}
	// The paper's headline: the optimal config beats baseline on energy.
	var base, opt float64
	for _, br := range rep.Branches {
		switch br.Name {
		case "baseline":
			base = br.EnergyJ
		case "optimal":
			opt = br.EnergyJ
		}
	}
	if opt >= base {
		t.Errorf("optimal branch energy %v >= baseline %v", opt, base)
	}

	// The parent session must be untouched by the comparison.
	if p, _ := f.Get(s.ID); p.Now != 30 || p.Policy != "baseline" {
		t.Errorf("what-if mutated the parent: %+v", p)
	}
}

func TestWhatIfCustomBranches(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "baseline")

	rep, err := f.WhatIf(context.Background(), s.ID, api.WhatIfRequest{
		Seconds: 40,
		Branches: []api.WhatIfBranchSpec{
			{},
			{Policy: "optimal", PowerCapW: 40},
			{Placement: "spreaded"},
			{Name: "mine", Policy: "safe-vmin"},
		},
	})
	if err != nil {
		t.Fatalf("WhatIf: %v", err)
	}
	names := []string{"control", "optimal", "spreaded", "mine"}
	for i, br := range rep.Branches {
		if br.Name != names[i] {
			t.Errorf("branch %d name = %q, want %q", i, br.Name, names[i])
		}
		if br.Error != nil {
			t.Errorf("branch %q failed: %+v", br.Name, br.Error)
		}
	}
	if rep.Branches[0].Policy != "baseline" {
		t.Errorf("control branch policy = %q, want inherited baseline", rep.Branches[0].Policy)
	}
	if rep.Branches[1].PowerCapW != 40 {
		t.Errorf("cap branch lost its budget: %+v", rep.Branches[1])
	}

	// A control branch replays the parent's own future: advancing the
	// parent by the same window must land on identical bits.
	pr, err := f.RunSync(context.Background(), s.ID, api.RunRequest{Seconds: 40})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := rep.Branches[0]
	if ctrl.Ticks != pr.Ticks ||
		math.Float64bits(ctrl.Now) != math.Float64bits(pr.Now) {
		t.Errorf("control branch diverged from parent: %+v vs %+v", ctrl, pr)
	}
}

func TestWhatIfValidation(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "baseline")
	ctx := context.Background()

	if _, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("zero seconds = %v, want ErrInvalidRequest", err)
	}
	if _, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{Seconds: 10,
		Branches: []api.WhatIfBranchSpec{{Policy: "turbo"}}}); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unknown branch policy = %v, want ErrUnknownPolicy", err)
	}
	if _, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{Seconds: 10,
		Branches: []api.WhatIfBranchSpec{{PowerCapW: -1}}}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("negative cap = %v, want ErrInvalidRequest", err)
	}
	if _, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{Seconds: 10,
		Branches: []api.WhatIfBranchSpec{{Placement: "diagonal"}}}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("unknown placement = %v, want ErrInvalidRequest", err)
	}
	// The session is at 30 s of 10 ms ticks: a window to tick 2^53 is
	// refused, one a second short of it is answered.
	limit := float64(1<<53)*0.01 - 30
	if _, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{Seconds: limit, Fast: true}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("window to tick 2^53 = %v, want ErrInvalidRequest", err)
	}
	if _, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{Seconds: limit - 1, Fast: true}); err != nil {
		t.Errorf("window to tick 2^53-100 = %v, want an answer", err)
	}
}

// TestRunPastMaxTicksRefused: a run that takes the tick counter past
// 2^53 is a 400 invalid_request in both modes, whether the seconds are
// huge or the session's tick is tiny, and admits nothing that could pin
// a pool worker.
func TestRunPastMaxTicksRefused(t *testing.T) {
	f, _ := testFleet(t, Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	normal := mustCreate(t, f, api.CreateSessionRequest{})
	tiny := mustCreate(t, f, api.CreateSessionRequest{TickSeconds: 1e-300})
	for _, tc := range []struct {
		session string
		seconds float64
	}{
		{normal.ID, 1e300},
		{normal.ID, float64(1<<53) * sim.DefaultTick},
		{tiny.ID, 1},
	} {
		for _, async := range []bool{false, true} {
			raw, _ := json.Marshal(api.RunRequest{Seconds: tc.seconds, Async: async})
			resp, err := http.Post(ts.URL+"/v1/sessions/"+tc.session+"/run", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var apiErr api.Error
			decErr := json.NewDecoder(resp.Body).Decode(&apiErr)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || decErr != nil || apiErr.Code != api.CodeInvalidRequest {
				t.Errorf("%g s run (async %t) on %s = %d %+v (%v), want 400 %s",
					tc.seconds, async, tc.session, resp.StatusCode, apiErr, decErr, api.CodeInvalidRequest)
			}
		}
	}
	for _, id := range []string{normal.ID, tiny.ID} {
		got, err := f.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != api.SessionIdle || got.Ticks != 0 {
			t.Errorf("%s after refused runs: state %s, %d ticks", id, got.State, got.Ticks)
		}
	}
	// One tick short of the bound is still admitted.
	if _, err := f.RunSync(context.Background(), tiny.ID, api.RunRequest{Seconds: 1e-300}); err != nil {
		t.Errorf("one-tick run on the tiny-tick session: %v", err)
	}
}

// TestImportRejectsBadEnergy: a peer snapshot whose energy quanta are
// negative, fractional or beyond what MaxTicks ticks can hold is a 400
// and restores nothing; the unedited snapshot imports.
func TestImportRejectsBadEnergy(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s, err := f.lookup(seedSession(t, f, "optimal").ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	st, err := s.captureStateLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	_, state, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	// edit returns state with one number replaced, decoding with UseNumber
	// so every other integer survives the round trip exactly.
	edit := func(value string, path ...string) json.RawMessage {
		dec := json.NewDecoder(bytes.NewReader(state))
		dec.UseNumber()
		var root map[string]any
		if err := dec.Decode(&root); err != nil {
			t.Fatal(err)
		}
		obj := root
		for _, k := range path[:len(path)-1] {
			obj = obj[k].(map[string]any)
		}
		obj[path[len(path)-1]] = json.Number(value)
		raw, err := json.Marshal(root)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	h := f.Handler()
	imp := func(name string, state json.RawMessage) int {
		body, err := json.Marshal(api.ImportRequest{Session: name, State: state})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/import", bytes.NewReader(body)))
		return rec.Code
	}
	for _, tc := range []struct {
		name, value string
		path        []string
	}{
		{"negative", "-1", []string{"machine", "meter", "leakage", "lo"}},
		{"fractional", "0.5", []string{"machine", "meter", "core_dynamic", "lo"}},
		{"above uint64", "18446744073709551616", []string{"machine", "meter", "mem_ctl", "lo"}},
		{"beyond MaxTicks ticks", "9007199254740992", []string{"machine", "meter", "l3_fabric", "hi"}},
		{"huge negative", "-1e300", []string{"machine", "meter", "pmd_uncore", "lo"}},
		{"negative peak", "-1e300", []string{"machine", "meter", "peak_w"}},
		{"negative steady quantum", "-1", []string{"machine", "steady", "energy", "leakage"}},
	} {
		if code := imp("bad-"+strings.ReplaceAll(tc.name, " ", "-"), edit(tc.value, tc.path...)); code != http.StatusBadRequest {
			t.Errorf("%s energy: import = %d, want 400", tc.name, code)
		}
	}
	if code := imp("good", state); code != http.StatusCreated {
		t.Fatalf("unedited import = %d, want 201", code)
	}
	f.mu.Lock()
	n := len(f.sessions)
	f.mu.Unlock()
	if n != 2 {
		t.Errorf("%d sessions after the imports, want the seed and the good import", n)
	}
}

// TestSnapshotJobsImmuneToReaping is the lifecycle fix: a session with an
// in-flight snapshot-family job (snapshot, fork resolve, what-if compare,
// characterize) must survive the TTL reaper until the job ends.
func TestSnapshotJobsImmuneToReaping(t *testing.T) {
	f, clk := testFleet(t, Config{SessionTTL: time.Minute})
	s := mustCreate(t, f, api.CreateSessionRequest{})
	f.mu.Lock()
	sess := f.sessions[s.ID]
	f.mu.Unlock()

	sess.beginJob()
	clk.advance(time.Hour)
	if n := f.ReapNow(); n != 0 {
		t.Fatalf("reaped %d sessions while a job was in flight", n)
	}
	if _, err := f.Get(s.ID); err != nil {
		t.Fatalf("session gone mid-job: %v", err)
	}

	// endJob stamps lastTouch, so the TTL clock restarts at job end
	// rather than back-dating to the pre-job touch.
	sess.endJob(clk.now())
	if n := f.ReapNow(); n != 0 {
		t.Fatalf("reaped %d sessions immediately after job end", n)
	}
	clk.advance(2 * time.Minute)
	if n := f.ReapNow(); n != 1 {
		t.Fatalf("idle session not reaped after job end (n=%d)", n)
	}
}

// TestSnapshotPersistsAcrossRestart: with -snapshot-dir set, a snapshot
// taken by one fleet is forkable by the next one.
func TestSnapshotPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	f1, _ := testFleet(t, Config{SnapshotDir: dir})
	s1 := seedSession(t, f1, "optimal")
	snap, err := f1.Snapshot(s1.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	f1.Close()

	f2, _ := testFleet(t, Config{SnapshotDir: dir})
	host := mustCreate(t, f2, api.CreateSessionRequest{})
	fork, err := f2.Fork(host.ID, api.ForkRequest{SnapshotID: snap.ID})
	if err != nil {
		t.Fatalf("Fork after restart: %v", err)
	}
	child := fork.Session
	if child.Ticks != snap.Ticks ||
		math.Float64bits(child.Now) != math.Float64bits(snap.Now) ||
		math.Float64bits(child.EnergyJ) != math.Float64bits(snap.EnergyJ) {
		t.Fatalf("restored child not at the snapshot point: %+v vs %+v", child, snap)
	}
	if child.Policy != "optimal" || child.Model != "xgene3" {
		t.Fatalf("restored child lost its identity: %+v", child)
	}
}

func TestSnapshotEndpointsHTTP(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "baseline")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := post("/v1/sessions/"+s.ID+"/snapshot", struct{}{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("snapshot status = %d, body %s", resp.StatusCode, body)
	}
	var snap api.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil || snap.ID == "" {
		t.Fatalf("snapshot body %s: %v", body, err)
	}

	resp, body = post("/v1/sessions/"+s.ID+"/fork", api.ForkRequest{SnapshotID: snap.ID, Policy: "optimal"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fork status = %d, body %s", resp.StatusCode, body)
	}
	var fork api.Fork
	if err := json.Unmarshal(body, &fork); err != nil || fork.Session.ID == "" || fork.Session.Policy != "optimal" {
		t.Fatalf("fork body %s: %v", body, err)
	}

	resp, body = post("/v1/sessions/"+s.ID+"/whatif", api.WhatIfRequest{Seconds: 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif status = %d, body %s", resp.StatusCode, body)
	}
	var rep api.WhatIfReport
	if err := json.Unmarshal(body, &rep); err != nil || len(rep.Branches) != 4 {
		t.Fatalf("whatif body %s: %v", body, err)
	}

	// A window past the tick counter's 2^53 limit is a 400 on both engines
	// (the surrogate's energy would be +Inf, which JSON cannot carry; the
	// simulator would never get there). The deadline keeps a server that
	// accepts the window from hanging the test.
	for _, fast := range []bool{false, true} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		raw, _ := json.Marshal(api.WhatIfRequest{Seconds: 1e308, Fast: fast})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sessions/"+s.ID+"/whatif", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Errorf("1e308 s what-if (fast %t): %v", fast, err)
			continue
		}
		var apiErr api.Error
		decErr := json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		cancel()
		if resp.StatusCode != http.StatusBadRequest || decErr != nil || apiErr.Code != api.CodeInvalidRequest {
			t.Errorf("1e308 s what-if (fast %t) = %d %+v (%v), want 400 %s",
				fast, resp.StatusCode, apiErr, decErr, api.CodeInvalidRequest)
		}
	}

	resp, body = post("/v1/sessions/"+s.ID+"/fork", api.ForkRequest{SnapshotID: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus fork status = %d, body %s", resp.StatusCode, body)
	}
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Code != api.CodeSnapshotNotFound {
		t.Fatalf("bogus fork body %s: %v", body, err)
	}
}
