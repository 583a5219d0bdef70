package surrogate

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/experiments"
	"avfs/internal/power"
	"avfs/internal/sim"
	"avfs/internal/workload"
)

// validationSalt seeds the validation workloads; it must differ from the
// calibration salt (1) so the accuracy gates never score the surrogate on
// its own fitting data.
const validationSalt = 7

var (
	fitMu     sync.Mutex
	fitCache  = map[chip.Model]*Model{}
	estOnce   sync.Mutex
	benchData = map[string]any{}
)

func fittedModel(t testing.TB, spec *chip.Spec) *Model {
	t.Helper()
	fitMu.Lock()
	defer fitMu.Unlock()
	if m, ok := fitCache[spec.Model]; ok {
		return m
	}
	m, err := Fit(spec, FitConfig{Salt: 1})
	if err != nil {
		t.Fatalf("Fit(%s): %v", spec.Name, err)
	}
	fitCache[spec.Model] = m
	return m
}

func newEst(t testing.TB, spec *chip.Spec, node TechNode, sm ScalingModel) *Estimator {
	t.Helper()
	e, err := NewEstimator(spec, fittedModel(t, spec), node, sm)
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	return e
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// recordBench merges a section into BENCH_surrogate.json when the bench
// harness asked for it (AVFS_BENCH_SURROGATE_OUT).
func recordBench(t testing.TB, section string, v any) {
	estOnce.Lock()
	benchData[section] = v
	data := make(map[string]any, len(benchData))
	for k, val := range benchData {
		data[k] = val
	}
	estOnce.Unlock()
	out := os.Getenv("AVFS_BENCH_SURROGATE_OUT")
	if out == "" {
		return
	}
	// Merge with whatever an earlier test binary run left behind.
	merged := map[string]any{}
	if raw, err := os.ReadFile(out); err == nil {
		_ = json.Unmarshal(raw, &merged)
	}
	for k, val := range data {
		merged[k] = val
	}
	raw, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatalf("marshal bench data: %v", err)
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		t.Fatalf("mkdir bench out: %v", err)
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Fatalf("write bench out: %v", err)
	}
}

func TestTechNodeScaling(t *testing.T) {
	spec := chip.XGene3Spec()
	coeff := power.CoefficientsFor(spec.Model)

	// Native node (or 0) is the identity.
	for _, node := range []TechNode{0, NativeNode(spec)} {
		s, c, ns := ScaledChip(spec, coeff, node, CONS)
		if s != spec || c != coeff || !ns.Identity() {
			t.Fatalf("node %v: expected identity scaling", node)
		}
	}

	// 16 → 7 nm: lower voltage, higher frequency, lower power under both
	// roadmaps; ITRS is the more aggressive of the two.
	for _, sm := range []ScalingModel{CONS, ITRS} {
		s, c, ns := ScaledChip(spec, coeff, 7, sm)
		if s.NominalMV >= spec.NominalMV || s.MinSafeMV >= spec.MinSafeMV {
			t.Errorf("%v: voltage did not scale down: %v -> %v", sm, spec.NominalMV, s.NominalMV)
		}
		if s.MaxFreq <= spec.MaxFreq {
			t.Errorf("%v: frequency did not scale up: %v -> %v", sm, spec.MaxFreq, s.MaxFreq)
		}
		if s.TDPWatts >= spec.TDPWatts {
			t.Errorf("%v: TDP did not scale down", sm)
		}
		if c.CoreCapF >= coeff.CoreCapF || c.LeakWatts >= coeff.LeakWatts {
			t.Errorf("%v: coefficients did not scale down", sm)
		}
		if ns.CapRatio <= 0 {
			t.Errorf("%v: non-positive cap ratio %v", sm, ns.CapRatio)
		}
		// Voltages stay on the regulator grid.
		if int(s.NominalMV)%int(spec.VoltageStep) != 0 {
			t.Errorf("%v: nominal %v off the %v grid", sm, s.NominalMV, spec.VoltageStep)
		}
	}
	itrs := ScaleBetween(ITRS, 16, 7)
	cons := ScaleBetween(CONS, 16, 7)
	if itrs.VddRatio >= cons.VddRatio {
		t.Errorf("ITRS should scale voltage harder: %v vs %v", itrs.VddRatio, cons.VddRatio)
	}
	if itrs.FreqRatio <= cons.FreqRatio {
		t.Errorf("ITRS should scale frequency harder: %v vs %v", itrs.FreqRatio, cons.FreqRatio)
	}

	// Parsers.
	if n, err := ParseTechNode("16nm"); err != nil || n != 16 {
		t.Errorf("ParseTechNode(16nm) = %v, %v", n, err)
	}
	if n, err := ParseTechNode(""); err != nil || n != 0 {
		t.Errorf("ParseTechNode(\"\") = %v, %v", n, err)
	}
	if _, err := ParseTechNode("3"); err == nil {
		t.Error("ParseTechNode(3) should fail")
	}
	if sm, err := ParseScalingModel("itrs"); err != nil || sm != ITRS {
		t.Errorf("ParseScalingModel(itrs) = %v, %v", sm, err)
	}
	if _, err := ParseScalingModel("moore"); err == nil {
		t.Error("ParseScalingModel(moore) should fail")
	}
}

func TestEstimateBasics(t *testing.T) {
	spec := chip.XGene2Spec()
	est := newEst(t, spec, 0, CONS)
	ep := workload.MustByName("EP")
	cg := workload.MustByName("CG")

	full, err := est.EstimateEnergy(Query{Bench: ep, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if full.RuntimeS <= 0 || full.AvgPowerW <= 0 || full.EnergyJ <= 0 {
		t.Fatalf("degenerate estimate: %+v", full)
	}
	if full.FreqMHz != spec.MaxFreq || full.VoltageMV != spec.NominalMV {
		t.Fatalf("defaults not applied: %+v", full)
	}

	// Half clock slows CPU-bound work roughly 2x; memory-bound much less.
	halfEP, _ := est.EstimateEnergy(Query{Bench: ep, Threads: 4, Freq: spec.HalfFreq()})
	halfCG, _ := est.EstimateEnergy(Query{Bench: cg, Threads: 4, Freq: spec.HalfFreq()})
	fullCG, _ := est.EstimateEnergy(Query{Bench: cg, Threads: 4})
	epSlow := halfEP.RuntimeS / full.RuntimeS
	cgSlow := halfCG.RuntimeS / fullCG.RuntimeS
	if epSlow < 1.5 {
		t.Errorf("EP at half clock should be ~2x slower, got %.2fx", epSlow)
	}
	if cgSlow >= epSlow {
		t.Errorf("memory-bound CG (%.2fx) should suffer less than EP (%.2fx) at half clock", cgSlow, epSlow)
	}

	// Safe-Vmin undervolting saves power at identical runtime.
	uv, err := est.EstimateEnergy(Query{Bench: ep, Threads: 4, Voltage: VoltageSafeVmin})
	if err != nil {
		t.Fatal(err)
	}
	if uv.VoltageMV >= spec.NominalMV || uv.AvgPowerW >= full.AvgPowerW {
		t.Errorf("safe-Vmin should undervolt below nominal: %+v", uv)
	}
	if uv.RuntimeS != full.RuntimeS {
		t.Errorf("undervolting must not change runtime: %v vs %v", uv.RuntimeS, full.RuntimeS)
	}

	if _, err := est.EstimateEnergy(Query{Bench: ep, Threads: spec.Cores + 1}); err == nil {
		t.Error("oversubscribed threads should fail")
	}
	if _, err := est.EstimateEnergy(Query{}); err == nil {
		t.Error("nil benchmark should fail")
	}
}

func TestSearchEnergyOptimal(t *testing.T) {
	spec := chip.XGene2Spec()
	est := newEst(t, spec, 0, CONS)
	for _, name := range []string{"EP", "CG"} {
		b := workload.MustByName(name)
		best, err := est.SearchEnergyOptimal(SearchQuery{Bench: b, Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		base, _ := est.EstimateEnergy(Query{Bench: b, Threads: 4})
		if best.EnergyJ > base.EnergyJ {
			t.Errorf("%s: search result (%.1fJ) worse than baseline point (%.1fJ)", name, best.EnergyJ, base.EnergyJ)
		}
		if best.VoltageMV >= spec.NominalMV {
			t.Errorf("%s: energy-optimal point should undervolt, got %v", name, best.VoltageMV)
		}
		// The point must be reachable: on the V/F grid and above the
		// guardbanded envelope for its class.
		fc := clock.ClassOf(spec, best.FreqMHz)
		util := utilPMDsFor(spec, best.Placement, best.Threads)
		if best.VoltageMV < est.envAt(fc, util) {
			t.Errorf("%s: search picked %v below the %v envelope", name, best.VoltageMV, fc)
		}
	}
}

func TestModelStoreRoundTrip(t *testing.T) {
	spec := chip.XGene2Spec()
	dir := t.TempDir()
	s := NewStore(dir)
	m1, err := s.Get(spec, FitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A second store on the same directory must load, not refit: the
	// loaded artifact is byte-identical.
	s2 := NewStore(dir)
	m2, err := s2.Get(spec, FitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := json.Marshal(m1)
	r2, _ := json.Marshal(m2)
	if string(r1) != string(r2) {
		t.Fatal("disk round-trip changed the model")
	}
	// Model version skew or an artifact fitted for another chip inside a
	// well-formed envelope → refit, not an error (and not a later
	// NewEstimator failure).
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 artifact, got %d", len(files))
	}
	stale, otherChip := *m1, *m1
	stale.Version = "surrogate-v0+stale"
	otherChip.ChipModel = int(chip.XGene3)
	for name, bad := range map[string]*Model{"version skew": &stale, "chip mismatch": &otherChip} {
		raw, _ := json.Marshal(map[string]any{"version": Version, "key": storeKey(spec, 1), "payload": bad})
		if err := os.WriteFile(filepath.Join(dir, files[0].Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m3, err := NewStore(dir).Get(spec, FitConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if m3.Version != Version || m3.ChipModel != int(spec.Model) {
			t.Fatalf("%s: skewed artifact not refitted: %q chip %d", name, m3.Version, m3.ChipModel)
		}
	}
}

// TestSurrogateAccuracyBudget is the CI accuracy gate (satellite: table-
// driven, race-clean): surrogate-vs-simulator relative error on the
// Table III/IV four-way comparison, per workload mix, on validation
// workloads the fit never saw.
func TestSurrogateAccuracyBudget(t *testing.T) {
	// Error ceilings per metric. The surrogate is a first-order model;
	// these bounds are what CI holds it to.
	const (
		energyCeiling = 0.15
		timeCeiling   = 0.12
	)
	type cell struct {
		Chip      string  `json:"chip"`
		Mix       string  `json:"mix"`
		Config    string  `json:"config"`
		EnergyErr float64 `json:"energy_rel_err"`
		TimeErr   float64 `json:"time_rel_err"`
	}
	var cells []cell
	maxE, maxT := 0.0, 0.0
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		est := newEst(t, spec, 0, CONS)
		for _, mix := range experiments.Mixes() {
			wl := experiments.CalibrationWorkload(spec, mix, validationSalt)
			for _, cfg := range experiments.SystemConfigs() {
				simRes, err := experiments.Evaluate(spec, wl, cfg)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", spec.Name, mix, cfg, err)
				}
				an := est.EstimateWorkload(wl, cfg)
				c := cell{
					Chip: spec.Name, Mix: mix.String(), Config: cfg.String(),
					EnergyErr: relErr(an.EnergyJ, simRes.EnergyJ),
					TimeErr:   relErr(an.Seconds, simRes.TimeSec),
				}
				cells = append(cells, c)
				maxE = math.Max(maxE, c.EnergyErr)
				maxT = math.Max(maxT, c.TimeErr)
				t.Logf("%-24s %-8s %-10s energy %6.1f%%  time %6.1f%%",
					spec.Name, c.Mix, c.Config, 100*c.EnergyErr, 100*c.TimeErr)
				if c.EnergyErr > energyCeiling {
					t.Errorf("%s/%s/%s: energy error %.1f%% exceeds %.0f%% ceiling",
						spec.Name, c.Mix, c.Config, 100*c.EnergyErr, 100*energyCeiling)
				}
				if c.TimeErr > timeCeiling {
					t.Errorf("%s/%s/%s: time error %.1f%% exceeds %.0f%% ceiling",
						spec.Name, c.Mix, c.Config, 100*c.TimeErr, 100*timeCeiling)
				}
			}
		}
	}
	recordBench(t, "accuracy", map[string]any{
		"cells":              cells,
		"max_energy_rel_err": maxE,
		"max_time_rel_err":   maxT,
		"energy_ceiling":     energyCeiling,
		"time_ceiling":       timeCeiling,
	})
}

// TestSurrogateQueryBudget is the CI latency gate: the query path must be
// allocation-free and answer in microseconds, at least 100x faster than
// the simulator on the same question.
func TestSurrogateQueryBudget(t *testing.T) {
	spec := chip.XGene3Spec()
	est := newEst(t, spec, 0, CONS)
	ep := workload.MustByName("EP")
	q := Query{Bench: ep, Threads: 8, Placement: sim.Spreaded, Voltage: VoltageSafeVmin}

	if a := testing.AllocsPerRun(200, func() {
		if _, err := est.EstimateEnergy(q); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("EstimateEnergy allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := est.SearchEnergyOptimal(SearchQuery{Bench: ep}); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("SearchEnergyOptimal allocates %.1f/op, want 0", a)
	}

	wl := experiments.CalibrationWorkload(spec, experiments.MixBalanced, validationSalt)
	procs := make([]Proc, len(wl.Arrivals))
	for i, a := range wl.Arrivals {
		procs[i] = Proc{Bench: a.Bench, Threads: a.Threads, StartS: a.At, RemFrac: 1}
	}
	spec4 := BranchSpec{Config: experiments.Optimal}
	est.EstimateSet(procs, spec4, math.MaxFloat64, true) // warm the scratch
	if a := testing.AllocsPerRun(50, func() {
		est.EstimateSet(procs, spec4, math.MaxFloat64, true)
	}); a != 0 {
		t.Errorf("EstimateSet allocates %.1f/op, want 0", a)
	}

	timeOp := func(n int, f func()) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(start) / time.Duration(n)
	}
	perEstimate := timeOp(2000, func() { est.EstimateEnergy(q) })
	perSearch := timeOp(200, func() { est.SearchEnergyOptimal(SearchQuery{Bench: ep}) })
	perSet := timeOp(500, func() { est.EstimateSet(procs, spec4, math.MaxFloat64, true) })

	// The simulated answer to the same four-way question.
	simStart := time.Now()
	for _, cfg := range experiments.SystemConfigs() {
		if _, err := experiments.Evaluate(spec, wl, cfg); err != nil {
			t.Fatal(err)
		}
	}
	simFourWay := time.Since(simStart)
	surFourWay := 4 * perSet
	speedup := float64(simFourWay) / float64(surFourWay)

	const maxQueryNS = 50_000 // 50µs ceiling per closed-form answer
	if perEstimate > maxQueryNS*time.Nanosecond {
		t.Errorf("EstimateEnergy %v exceeds %dns budget", perEstimate, maxQueryNS)
	}
	if perSet > maxQueryNS*time.Nanosecond {
		t.Errorf("EstimateSet %v exceeds %dns budget", perSet, maxQueryNS)
	}
	if speedup < 100 {
		t.Errorf("four-way comparison speedup %.0fx, want >= 100x (sim %v vs surrogate %v)",
			speedup, simFourWay, surFourWay)
	}
	t.Logf("estimate %v, search %v, set %v; simulated four-way %v; speedup %.0fx",
		perEstimate, perSearch, perSet, simFourWay, speedup)
	recordBench(t, "query", map[string]any{
		"estimate_ns":          perEstimate.Nanoseconds(),
		"search_ns":            perSearch.Nanoseconds(),
		"set_ns":               perSet.Nanoseconds(),
		"allocs_per_op":        0,
		"sim_four_way_ns":      simFourWay.Nanoseconds(),
		"speedup_vs_simulator": speedup,
	})
}
