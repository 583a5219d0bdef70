package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"avfs/api"
	"avfs/internal/workload"
)

func TestEstimatePointQuery(t *testing.T) {
	f, _ := testFleet(t, Config{})

	est, err := f.Estimate(api.EstimateRequest{Benchmark: "CG", Threads: 8})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if est.Model != "xgene3" || est.Chip == "" || est.NodeNM == 0 || est.Scaling == "" {
		t.Fatalf("bad identity fields: %+v", est)
	}
	if est.Benchmark != "CG" || est.Threads != 8 || est.Placement != "clustered" {
		t.Fatalf("bad config echo: %+v", est)
	}
	if est.FreqMHz <= 0 || est.VoltageMV <= 0 {
		t.Fatalf("bad operating point: %+v", est)
	}
	if est.RuntimeS <= 0 || est.AvgPowerW <= 0 || est.EnergyJ <= 0 || est.EDP <= 0 || est.ED2P <= 0 {
		t.Fatalf("bad estimate metrics: %+v", est)
	}
	if got := f.mSurQueries.Value(); got != 1 {
		t.Errorf("surrogate query counter = %d, want 1", got)
	}

	// Safe-Vmin undervolting must save energy over nominal at the same
	// operating point — the paper's core claim, visible from the surrogate.
	nominal, err := f.Estimate(api.EstimateRequest{Benchmark: "EP", Threads: 4, FreqMHz: 2400})
	if err != nil {
		t.Fatal(err)
	}
	vmin, err := f.Estimate(api.EstimateRequest{Benchmark: "EP", Threads: 4, FreqMHz: 2400, Voltage: "safe-vmin"})
	if err != nil {
		t.Fatal(err)
	}
	if vmin.VoltageMV >= nominal.VoltageMV || vmin.EnergyJ >= nominal.EnergyJ {
		t.Errorf("safe-vmin did not save energy: %+v vs nominal %+v", vmin, nominal)
	}
}

func TestEstimateSearchAndTechNodes(t *testing.T) {
	f, _ := testFleet(t, Config{})

	best, err := f.Estimate(api.EstimateRequest{Benchmark: "milc", Threads: 8, Search: "energy"})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if best.Search != "energy" || best.FreqMHz <= 0 || best.EnergyJ <= 0 {
		t.Fatalf("bad search result: %+v", best)
	}
	// The searched optimum cannot lose to an arbitrary fixed point.
	fixed, err := f.Estimate(api.EstimateRequest{Benchmark: "milc", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if best.EnergyJ > fixed.EnergyJ*1.0001 {
		t.Errorf("searched energy %v beats nothing (fixed point %v)", best.EnergyJ, fixed.EnergyJ)
	}

	// Tech-node projection: a 7nm ITRS variant of the same chip runs the
	// same work for less energy than the native 28nm part.
	native, err := f.Estimate(api.EstimateRequest{Benchmark: "CG", Threads: 8, Node: "native"})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := f.Estimate(api.EstimateRequest{Benchmark: "CG", Threads: 8, Node: "7nm", Scaling: "itrs"})
	if err != nil {
		t.Fatalf("7nm estimate: %v", err)
	}
	if proj.NodeNM != 7 || proj.Scaling != "itrs" {
		t.Fatalf("bad node identity: %+v", proj)
	}
	if proj.EnergyJ >= native.EnergyJ {
		t.Errorf("7nm projection energy %v >= native %v", proj.EnergyJ, native.EnergyJ)
	}
}

func TestEstimateValidation(t *testing.T) {
	f, _ := testFleet(t, Config{})
	cases := []struct {
		name string
		req  api.EstimateRequest
		want error
	}{
		{"missing bench", api.EstimateRequest{}, ErrInvalidRequest},
		{"unknown bench", api.EstimateRequest{Benchmark: "doom"}, workload.ErrUnknownBenchmark},
		{"bad node", api.EstimateRequest{Benchmark: "CG", Node: "3nm"}, ErrInvalidRequest},
		{"bad scaling", api.EstimateRequest{Benchmark: "CG", Scaling: "moore"}, ErrInvalidRequest},
		{"bad voltage", api.EstimateRequest{Benchmark: "CG", Voltage: "overdrive"}, ErrInvalidRequest},
		{"bad search", api.EstimateRequest{Benchmark: "CG", Search: "edp3"}, ErrInvalidRequest},
		{"bad placement", api.EstimateRequest{Benchmark: "CG", Placement: "diagonal"}, ErrInvalidRequest},
		{"unknown model", api.EstimateRequest{Benchmark: "CG", Model: "m2max"}, ErrUnknownModel},
	}
	for _, tc := range cases {
		if _, err := f.Estimate(tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEstimateHTTP(t *testing.T) {
	f, _ := testFleet(t, Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/estimate?bench=CG&threads=8&node=16nm&scaling=cons")
	if err != nil {
		t.Fatal(err)
	}
	var est api.Estimate
	decodeBody(t, resp, &est)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if est.NodeNM != 16 || est.Scaling != "cons" || est.EnergyJ <= 0 {
		t.Fatalf("bad estimate over HTTP: %+v", est)
	}

	// Malformed numeric and unknown-benchmark answers are client errors.
	resp, err = http.Get(ts.URL + "/v1/estimate?bench=CG&threads=eight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad threads status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/estimate?bench=doom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown bench status = %d, want 404", resp.StatusCode)
	}
}

// decodeBody decodes a JSON response body and closes it.
func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// TestWhatIfFast: the instant tier answers all four default branches from
// the surrogate without running the simulator, and still picks winners.
func TestWhatIfFast(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "baseline")

	store := snapshotStoreMetrics(t, f)
	rep, err := f.WhatIf(context.Background(), s.ID, api.WhatIfRequest{Seconds: 60, Fast: true})
	if err != nil {
		t.Fatalf("fast WhatIf: %v", err)
	}
	if rep.Source != "surrogate" {
		t.Fatalf("report source = %q, want surrogate", rep.Source)
	}
	if rep.Session != s.ID || rep.SnapshotID != "" || rep.BaseNow != 30 {
		t.Fatalf("bad report envelope: %+v", rep)
	}
	if got := snapshotStoreMetrics(t, f); got != store {
		t.Errorf("an unnamed fast what-if moved the snapshot store:\n%s\n->\n%s", store, got)
	}
	want := []string{"baseline", "safe-vmin", "placement", "optimal"}
	if len(rep.Branches) != len(want) {
		t.Fatalf("got %d branches, want %d", len(rep.Branches), len(want))
	}
	for i, br := range rep.Branches {
		if br.Name != want[i] || br.Policy != want[i] {
			t.Errorf("branch %d = %q/%q, want %q", i, br.Name, br.Policy, want[i])
		}
		if br.EnergyJ <= 0 || br.AvgPowerW <= 0 || br.VoltageMV <= 0 || br.Seconds <= 0 {
			t.Errorf("branch %q metrics: %+v", br.Name, br)
		}
	}
	if rep.BestEnergy == "" || rep.BestPerf == "" {
		t.Fatalf("winners not picked: %+v", rep)
	}
	if got := f.mSurQueries.Value(); got != int64(len(want)) {
		t.Errorf("surrogate query counter = %d, want %d", got, len(want))
	}
	if jobs, _ := f.Jobs(s.ID); len(jobs.Jobs) != 0 {
		t.Errorf("fast what-if spawned %d jobs", len(jobs.Jobs))
	}
}

// surrogateWindowErr bounds the surrogate's relative energy error per
// branch over TestWhatIfFastTracksSimulated's 60 s window on seedSession:
// the worst branch measured 6.2% (5.5% to 7.6% over 10 s to 3,600 s
// windows), plus 3.8 points of margin for model refits.
const surrogateWindowErr = 0.10

// TestWhatIfFastTracksSimulated answers one snapshot from both engines:
// the surrogate's branches track the simulated ones, and the sync
// what-if publishes the drift canary (the worst relative energy error of
// the two) without counting a surrogate query. A cancelled what-if that
// finished no branch leaves the canary where it was.
func TestWhatIfFastTracksSimulated(t *testing.T) {
	f, _ := testFleet(t, Config{Workers: 1})
	s := seedSession(t, f, "baseline")
	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	ctx := context.Background()
	fast, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{SnapshotID: snap.ID, Seconds: 60, Fast: true})
	if err != nil {
		t.Fatalf("fast WhatIf: %v", err)
	}
	queries := f.mSurQueries.Value()
	req := api.WhatIfRequest{SnapshotID: snap.ID, Seconds: 60}
	simulated, err := f.WhatIf(ctx, s.ID, req)
	if err != nil {
		t.Fatalf("sync WhatIf: %v", err)
	}
	if got := f.mSurQueries.Value(); got != queries {
		t.Errorf("sync what-if moved the surrogate query counter %d -> %d", queries, got)
	}
	if len(fast.Branches) != len(simulated.Branches) {
		t.Fatalf("fast %d branches, simulated %d", len(fast.Branches), len(simulated.Branches))
	}
	worst := 0.0
	for i, fb := range fast.Branches {
		sb := simulated.Branches[i]
		if fb.Name != sb.Name || fb.Policy != sb.Policy {
			t.Fatalf("branch %d: fast %s/%s, simulated %s/%s", i, fb.Name, fb.Policy, sb.Name, sb.Policy)
		}
		if sb.Error != nil || sb.EnergyJ <= 0 {
			t.Fatalf("simulated branch %s: %+v", sb.Name, sb)
		}
		e := math.Abs(fb.EnergyJ-sb.EnergyJ) / sb.EnergyJ
		if e >= surrogateWindowErr {
			t.Errorf("branch %q surrogate energy off by %.0f%% (fast %v, simulated %v)",
				fb.Name, 100*e, fb.EnergyJ, sb.EnergyJ)
		}
		worst = math.Max(worst, e)
	}
	gauge, _ := f.reg.Value("avfs_surrogate_refine_rel_err")
	if gauge <= 0 || gauge != worst {
		t.Errorf("avfs_surrogate_refine_rel_err = %v, want the worst branch error %v", gauge, worst)
	}

	cancelled, err := f.WhatIf(newCountdownCtx(1), s.ID, req)
	if err != nil {
		t.Fatalf("cancelled WhatIf: %v", err)
	}
	for _, b := range cancelled.Branches {
		if b.Error == nil {
			t.Fatalf("branch %s finished under a context cancelled at its first check", b.Name)
		}
	}
	if got, _ := f.reg.Value("avfs_surrogate_refine_rel_err"); got != gauge {
		t.Errorf("a what-if with no finished branch moved the canary %v -> %v", gauge, got)
	}
}
