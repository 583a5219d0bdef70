package experiments

import (
	"context"
	"io"
	"math"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/metrics"
	"avfs/internal/sim"
	"avfs/internal/wlgen"
)

// Ablation tests use a reduced (10-minute) workload; the asserted
// properties are orderings, not absolute values. Shorter workloads suffer
// straggler tail effects that distort time penalties.
const (
	ablDuration = 600
	ablSeed     = 42
)

func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
}

func TestAblateThresholdKnee(t *testing.T) {
	skipIfShort(t)
	r, err := Ablate(context.Background(), Campaign{}, "threshold", chip.XGene2Spec(), ablDuration, ablSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("%d points", len(r.Points))
	}
	byLabel := indexPoints(t, r)
	low := byLabel["threshold 500/1Mcyc"]
	paper := byLabel["threshold 3000/1Mcyc"]
	inf := byLabel["threshold inf (all CPU-class)"]
	// Aggressive thresholds save the most energy but at a heavy time
	// penalty; the infinite threshold (nothing downclocked) saves the
	// least; the paper's 3K sits at the knee: near-maximal savings at a
	// small penalty.
	if !(low.EnergySavings > paper.EnergySavings && paper.EnergySavings > inf.EnergySavings) {
		t.Errorf("savings ordering violated: %.3f / %.3f / %.3f",
			low.EnergySavings, paper.EnergySavings, inf.EnergySavings)
	}
	if low.TimePenalty < paper.TimePenalty*2 {
		t.Errorf("aggressive threshold penalty %.3f not clearly worse than paper's %.3f",
			low.TimePenalty, paper.TimePenalty)
	}
	if paper.TimePenalty > 0.05 {
		t.Errorf("paper threshold penalty %.1f%% too large", 100*paper.TimePenalty)
	}
	for _, p := range r.Points {
		if p.Emergencies != 0 {
			t.Errorf("%s: %d emergencies", p.Label, p.Emergencies)
		}
	}
	r.Render(io.Discard)
}

func TestAblateGuardTightEnvelope(t *testing.T) {
	skipIfShort(t)
	r, err := Ablate(context.Background(), Campaign{}, "guard", chip.XGene3Spec(), ablDuration, ablSeed)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := indexPoints(t, r)
	// Non-negative guards are always safe (the envelope is the worst
	// case); negative guards must trip emergencies (the envelope is
	// tight).
	for _, label := range []string{"guard +30mV", "guard +15mV", "guard +5mV", "guard +0mV"} {
		if byLabel[label].Emergencies != 0 {
			t.Errorf("%s: %d emergencies above the envelope", label, byLabel[label].Emergencies)
		}
	}
	for _, label := range []string{"guard -10mV", "guard -25mV"} {
		if byLabel[label].Emergencies == 0 {
			t.Errorf("%s: no emergencies below the envelope — the Table II values would not be tight", label)
		}
	}
	// Energy savings grow monotonically as the guard shrinks.
	if !(byLabel["guard +30mV"].EnergySavings < byLabel["guard +5mV"].EnergySavings &&
		byLabel["guard +5mV"].EnergySavings < byLabel["guard -25mV"].EnergySavings) {
		t.Error("guard/savings monotonicity violated")
	}
}

func TestAblatePollInterval(t *testing.T) {
	skipIfShort(t)
	r, err := Ablate(context.Background(), Campaign{}, "poll", chip.XGene3Spec(), ablDuration, ablSeed)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := indexPoints(t, r)
	fast := byLabel["poll every 0.4s"]
	slow := byLabel["poll every 10.0s"]
	// Slow monitoring misses classification opportunities: lower savings.
	if slow.EnergySavings >= fast.EnergySavings {
		t.Errorf("10s polling (%.3f) should save less than 0.4s polling (%.3f)",
			slow.EnergySavings, fast.EnergySavings)
	}
}

func TestAblateMemFreqOrdering(t *testing.T) {
	skipIfShort(t)
	r, err := Ablate(context.Background(), Campaign{}, "memfreq", nil, ablDuration, ablSeed)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := indexPoints(t, r)
	deep := byLabel["memory PMDs @ 900MHz"]
	half := byLabel["memory PMDs @ 1200MHz"]
	full := byLabel["memory PMDs @ 2400MHz"]
	// The paper's 0.9 GHz deep-division point beats plain half speed,
	// which beats leaving memory PMDs at full speed.
	if !(deep.EnergySavings > half.EnergySavings && half.EnergySavings > full.EnergySavings) {
		t.Errorf("memory-frequency ordering violated: %.3f / %.3f / %.3f",
			deep.EnergySavings, half.EnergySavings, full.EnergySavings)
	}
}

func TestAblateRelaxedTradeoff(t *testing.T) {
	skipIfShort(t)
	r, err := Ablate(context.Background(), Campaign{}, "relaxed", chip.XGene3Spec(), ablDuration, ablSeed)
	if err != nil {
		t.Fatal(err)
	}
	first := r.Points[0]              // paper policy
	last := r.Points[len(r.Points)-1] // everything at half
	// Relaxing performance constraints buys energy but costs time.
	if last.EnergySavings <= first.EnergySavings {
		t.Errorf("relaxed policy savings %.3f not above paper policy %.3f",
			last.EnergySavings, first.EnergySavings)
	}
	if last.TimePenalty <= first.TimePenalty {
		t.Errorf("relaxed policy penalty %.3f not above paper policy %.3f",
			last.TimePenalty, first.TimePenalty)
	}
}

func TestAblateProtocolOrdering(t *testing.T) {
	skipIfShort(t)
	r, err := Ablate(context.Background(), Campaign{}, "protocol", chip.XGene3Spec(), ablDuration, ablSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatal("want 2 variants")
	}
	paperOrder, inverted := r.Points[0], r.Points[1]
	if paperOrder.Emergencies != 0 {
		t.Errorf("paper ordering tripped %d emergencies", paperOrder.Emergencies)
	}
	if inverted.Emergencies == 0 {
		t.Error("inverted ordering tripped no emergencies; the fail-safe protocol would be unnecessary")
	}
}

func indexPoints(t *testing.T, r AblationResult) map[string]AblationPoint {
	t.Helper()
	out := map[string]AblationPoint{}
	for _, p := range r.Points {
		out[p.Label] = p
	}
	return out
}

func TestAblateAging(t *testing.T) {
	skipIfShort(t)
	r, err := Ablate(context.Background(), Campaign{}, "aging", chip.XGene3Spec(), ablDuration, ablSeed)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := indexPoints(t, r)
	// Fresh silicon: both guards safe.
	if byLabel["age 0y, fresh guard (+5mV)"].Emergencies != 0 {
		t.Error("fresh silicon with the paper guard must be safe")
	}
	// Aged silicon with the fresh guard must trip emergencies; the
	// age-aware guard must not.
	for _, years := range []string{"3", "7"} {
		fresh := findPrefix(t, r, "age "+years+"y, fresh guard")
		aware := findPrefix(t, r, "age "+years+"y, age-aware guard")
		if fresh.Emergencies == 0 {
			t.Errorf("age %sy: fresh guard tripped no emergencies; drift model inert", years)
		}
		if aware.Emergencies != 0 {
			t.Errorf("age %sy: age-aware guard tripped %d emergencies", years, aware.Emergencies)
		}
		// The wider guard costs some savings.
		if aware.EnergySavings >= fresh.EnergySavings {
			t.Errorf("age %sy: age-aware guard should save less than the (unsafe) fresh guard", years)
		}
		if aware.EnergySavings < 0.10 {
			t.Errorf("age %sy: savings %.1f%% collapsed", years, 100*aware.EnergySavings)
		}
	}
}

func findPrefix(t *testing.T, r AblationResult, prefix string) AblationPoint {
	t.Helper()
	for _, p := range r.Points {
		if len(p.Label) >= len(prefix) && p.Label[:len(prefix)] == prefix {
			return p
		}
	}
	t.Fatalf("no point with prefix %q", prefix)
	return AblationPoint{}
}

func TestSeedStudyRobustness(t *testing.T) {
	skipIfShort(t)
	st, err := RunSeedStudyContext(context.Background(), Campaign{}, chip.XGene3Spec(), 480, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Points) != 3 {
		t.Fatalf("%d points", len(st.Points))
	}
	for _, p := range st.Points {
		if p.Emergencies != 0 {
			t.Errorf("seed %d: %d emergencies", p.Seed, p.Emergencies)
		}
		if p.EnergySavings < 0.10 || p.EnergySavings > 0.40 {
			t.Errorf("seed %d: savings %.1f%% outside the plausible band", p.Seed, 100*p.EnergySavings)
		}
	}
	if st.StddevSavings() > 0.10 {
		t.Errorf("savings spread %.1f%% across seeds too wide", 100*st.StddevSavings())
	}
	st.Render(io.Discard)
}

func TestCapStudyDaemonBeatsNaiveCapping(t *testing.T) {
	skipIfShort(t)
	st, err := RunCapStudyContext(context.Background(), Campaign{}, chip.XGene3Spec(), ablDuration, ablSeed)
	if err != nil {
		t.Fatal(err)
	}
	base, ok1 := st.Point("Baseline")
	capped, ok2 := st.Point("Power cap")
	opt, ok3 := st.Point("Optimal daemon")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing study points")
	}
	// Both power-reduced systems draw comparable average power (the cap
	// budget is the daemon's own average).
	if capped.AvgPowerW > st.BudgetW*1.1 {
		t.Errorf("cap failed to hold the budget: %.1fW vs %.1fW", capped.AvgPowerW, st.BudgetW)
	}
	// The daemon reaches that power level far cheaper in time than the
	// naive cap (which throttles CPU-intensive work indiscriminately).
	capPenalty := capped.TimeSec/base.TimeSec - 1
	optPenalty := opt.TimeSec/base.TimeSec - 1
	if optPenalty*2 > capPenalty {
		t.Errorf("daemon penalty %.1f%% not clearly below naive capping %.1f%%",
			100*optPenalty, 100*capPenalty)
	}
	// And the daemon consumes less energy than the capped system.
	if opt.EnergyJ >= capped.EnergyJ {
		t.Errorf("daemon energy %.0fJ not below capped %.0fJ", opt.EnergyJ, capped.EnergyJ)
	}
	st.Render(io.Discard)
}

func TestAblateMigrationCostNegligible(t *testing.T) {
	skipIfShort(t)
	r, err := Ablate(context.Background(), Campaign{}, "migration", chip.XGene3Spec(), ablDuration, ablSeed)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := indexPoints(t, r)
	free := byLabel["migration cost 0ms"]
	linux := byLabel["migration cost 0.1ms"] // a realistic kernel migration
	huge := byLabel["migration cost 1000ms"]
	// The paper's claim: realistic migration costs do not move the
	// result.
	if d := free.EnergySavings - linux.EnergySavings; d > 0.005 || d < -0.005 {
		t.Errorf("0.1ms migrations changed savings by %.2f points — not negligible", 100*d)
	}
	if d := linux.TimePenalty - free.TimePenalty; d > 0.005 || d < -0.005 {
		t.Errorf("0.1ms migrations changed the time penalty by %.2f points", 100*d)
	}
	// Sanity: an absurd 1s penalty must hurt (otherwise the knob is inert).
	if huge.TimePenalty <= free.TimePenalty+0.001 {
		t.Errorf("1s migrations cost nothing (%.3f vs %.3f) — penalty model inert",
			huge.TimePenalty, free.TimePenalty)
	}
	for _, label := range []string{"migration cost 0ms", "migration cost 0.1ms", "migration cost 5ms"} {
		if byLabel[label].Emergencies != 0 {
			t.Errorf("%s: emergencies", label)
		}
	}
}

// TestAblationStudiesTable checks the study table: unique names, every
// study builds variants on both chips, and Ablate rejects an unknown name.
func TestAblationStudiesTable(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range AblationStudies() {
		if st.Name == "" || st.Title == "" || seen[st.Name] {
			t.Errorf("study %q (%q): empty or duplicate name", st.Name, st.Title)
		}
		seen[st.Name] = true
		for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
			if len(st.variants(spec)) == 0 {
				t.Errorf("%s on %s: no variants", st.Name, spec.Name)
			}
		}
	}
	if _, err := Ablate(context.Background(), Campaign{}, "nope", chip.XGene3Spec(), 60, 1); err == nil {
		t.Error("Ablate accepted an unknown study")
	}
}

// TestAblationPaperPolicyIsOptimalCell pins the relaxed sweep's paper
// policy point to the Optimal campaign cell of the same workload: the
// same ticks, completion time, daemon actions and energy bits.
func TestAblationPaperPolicyIsOptimalCell(t *testing.T) {
	const duration, seed = 300, 42
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		wl := wlgen.Generate(spec, wlgen.Config{Duration: duration}, seed)
		r, err := Ablate(context.Background(), Campaign{}, "relaxed", spec, duration, seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Evaluate(spec, wl, Baseline)
		if err != nil {
			t.Fatal(err)
		}
		cell, cs, err := evaluate(sim.New(spec), wl, Optimal)
		if err != nil {
			t.Fatal(err)
		}
		var relaxed AblationStudy
		for _, st := range AblationStudies() {
			if st.Name == "relaxed" {
				relaxed = st
			}
		}
		paper := relaxed.variants(spec)[0]
		s, err := replayVariant(spec, wl, paper)
		if err != nil {
			t.Fatal(err)
		}

		if s.M.Ticks() != cs.M.Ticks() || math.Float64bits(s.M.Now()) != math.Float64bits(cell.TimeSec) {
			t.Errorf("%s: paper policy ends at tick %d (%v s), Optimal cell at tick %d (%v s)",
				spec.Name, s.M.Ticks(), s.M.Now(), cs.M.Ticks(), cell.TimeSec)
		}
		if st := s.D.Stats(); st != cell.DaemonStats {
			t.Errorf("%s: paper policy daemon stats %+v, Optimal cell %+v", spec.Name, st, cell.DaemonStats)
		}
		if math.Float64bits(s.M.Meter.Energy()) != math.Float64bits(cell.EnergyJ) {
			t.Errorf("%s: paper policy energy %v J, Optimal cell %v J", spec.Name, s.M.Meter.Energy(), cell.EnergyJ)
		}

		// The sweep's point is the replayed variant against the Baseline.
		pt := r.Points[0]
		if pt.Label != paper.label ||
			math.Float64bits(pt.TimePenalty) != math.Float64bits(metrics.RelDiff(cell.TimeSec, base.TimeSec)) ||
			pt.Emergencies != cell.Emergencies ||
			pt.ClassFlips != cell.DaemonStats.ClassFlips || pt.Migrations != cell.DaemonStats.Migrations ||
			math.Float64bits(pt.EnergySavings) != math.Float64bits(metrics.Savings(base.EnergyJ, cell.EnergyJ)) {
			t.Errorf("%s: sweep point %+v disagrees with the Optimal cell (%v s, %v J, %+v)",
				spec.Name, pt, cell.TimeSec, cell.EnergyJ, cell.DaemonStats)
		}
	}
}
