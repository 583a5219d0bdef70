package experiments

import (
	"math"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/sim"
	"avfs/internal/trace"
	"avfs/internal/wlgen"
)

// relativeClose reports |a-b| <= tol * max(|a|,|b|) (exact match allowed).
func relativeClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

// assertEquivalent compares two replays of the same workload+config with
// coalescing on/off: integer observables exactly, floats within 1e-9
// relative.
func assertEquivalent(t *testing.T, label string, on, off EvalResult, mOn, mOff *sim.Machine) {
	t.Helper()
	if on.TimeSec != off.TimeSec {
		t.Errorf("%s: completion time diverged: on %v, off %v", label, on.TimeSec, off.TimeSec)
	}
	if !relativeClose(on.EnergyJ, off.EnergyJ, 1e-9) {
		t.Errorf("%s: energy diverged: on %v, off %v", label, on.EnergyJ, off.EnergyJ)
	}
	if !relativeClose(on.AvgPowerW, off.AvgPowerW, 1e-9) {
		t.Errorf("%s: avg power diverged: on %v, off %v", label, on.AvgPowerW, off.AvgPowerW)
	}
	if on.Emergencies != off.Emergencies {
		t.Errorf("%s: emergencies diverged: on %d, off %d", label, on.Emergencies, off.Emergencies)
	}
	if on.DaemonStats != off.DaemonStats {
		t.Errorf("%s: daemon stats diverged: on %+v, off %+v", label, on.DaemonStats, off.DaemonStats)
	}
	for c := 0; c < mOn.Spec.Cores; c++ {
		cc := chip.CoreID(c)
		if mOn.Counters(cc) != mOff.Counters(cc) {
			t.Errorf("%s: core %d counters diverged: on %+v, off %+v",
				label, c, mOn.Counters(cc), mOff.Counters(cc))
		}
	}
	fOn, fOff := mOn.Finished(), mOff.Finished()
	if len(fOn) != len(fOff) {
		t.Fatalf("%s: finish counts diverged: on %d, off %d", label, len(fOn), len(fOff))
	}
	for i := range fOn {
		if fOn[i].ID != fOff[i].ID || fOn[i].Completed != fOff[i].Completed {
			t.Errorf("%s: finish order diverged at %d: on %d@%v, off %d@%v",
				label, i, fOn[i].ID, fOn[i].Completed, fOff[i].ID, fOff[i].Completed)
		}
	}
}

// assertSeriesEquivalent compares a recorded time series point by point.
func assertSeriesEquivalent(t *testing.T, label string, on, off *trace.Series) {
	t.Helper()
	pOn, pOff := on.Points(), off.Points()
	if len(pOn) != len(pOff) {
		t.Fatalf("%s: sample counts diverged: on %d, off %d", label, len(pOn), len(pOff))
	}
	for i := range pOn {
		if pOn[i].T != pOff[i].T {
			t.Errorf("%s: sample %d instant diverged: on %v, off %v", label, i, pOn[i].T, pOff[i].T)
			return
		}
		if !relativeClose(pOn[i].V, pOff[i].V, 1e-9) {
			t.Errorf("%s: sample %d value diverged: on %v, off %v", label, i, pOn[i].V, pOff[i].V)
			return
		}
	}
}

// TestEvaluationCoalescingEquivalence replays the Table IV evaluation (all
// four system configurations, fixed seed) with tick coalescing on and off
// and asserts the results are equivalent — including the daemon's
// zero-voltage-emergency invariant holding in both modes.
func TestEvaluationCoalescingEquivalence(t *testing.T) {
	spec := chip.XGene3Spec()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 600}, 42)
	for _, cfg := range SystemConfigs() {
		on, sOn, err := evaluate(spec, wl, cfg, true)
		if err != nil {
			t.Fatalf("%v coalesced: %v", cfg, err)
		}
		off, sOff, err := evaluate(spec, wl, cfg, false)
		if err != nil {
			t.Fatalf("%v serial: %v", cfg, err)
		}
		mOn := sOn.M
		assertEquivalent(t, cfg.String(), on, off, mOn, sOff.M)
		if cfg == Placement || cfg == Optimal {
			if on.Emergencies != 0 {
				t.Errorf("%v: %d voltage emergencies with coalescing", cfg, on.Emergencies)
			}
		}
		if mOn.CoalescedTicks() == 0 {
			t.Errorf("%v: coalescing enabled but no ticks were coalesced", cfg)
		}
	}
}

// TestWlgenHourCoalescingEquivalence is the full-scale gate of the
// equivalence contract: one generated 1-hour workload (the paper's
// evaluation horizon) replayed under the Optimal daemon both ways, with
// the Fig. 14/15 series compared sample by sample. Skipped in -short runs.
func TestWlgenHourCoalescingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("hour-scale replay skipped in -short mode")
	}
	spec := chip.XGene2Spec()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 3600}, 7)
	on, sOn, err := evaluate(spec, wl, Optimal, true)
	if err != nil {
		t.Fatal(err)
	}
	off, sOff, err := evaluate(spec, wl, Optimal, false)
	if err != nil {
		t.Fatal(err)
	}
	mOn, mOff := sOn.M, sOff.M
	assertEquivalent(t, "Optimal/1h", on, off, mOn, mOff)
	assertSeriesEquivalent(t, "power", on.Power, off.Power)
	assertSeriesEquivalent(t, "load", on.Load, off.Load)
	assertSeriesEquivalent(t, "cpu procs", on.CPUProcs, off.CPUProcs)
	assertSeriesEquivalent(t, "mem procs", on.MemProcs, off.MemProcs)
	if on.Emergencies != 0 {
		t.Errorf("hour-scale Optimal run recorded %d voltage emergencies", on.Emergencies)
	}
	if mOn.CoalescedTicks() == 0 {
		t.Error("hour-scale run coalesced nothing")
	}
	t.Logf("hour replay: %d ticks, %d coalesced (%.1f%%)",
		mOn.Ticks(), mOn.CoalescedTicks(), 100*float64(mOn.CoalescedTicks())/float64(mOn.Ticks()))
}
