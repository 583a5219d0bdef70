package experiments

import (
	"math"
	"reflect"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/sim"
	"avfs/internal/trace"
	"avfs/internal/wlgen"
)

// perTick is a fresh machine that commits every tick on its own: a hook
// whose boundary is always now ends every batch after one tick. It is the
// serial oracle batched replays must equal bit for bit.
func perTick(spec *chip.Spec) *sim.Machine {
	m := sim.New(spec)
	m.OnTickBounded(nil, m.Now)
	return m
}

// assertEquivalent compares a batched and a per-tick replay of the same
// workload+config: every observable bit for bit, energies included.
func assertEquivalent(t *testing.T, label string, on, off EvalResult, mOn, mOff *sim.Machine) {
	t.Helper()
	if n := mOff.CoalescedTicks(); n != 0 {
		t.Fatalf("%s: the per-tick replay coalesced %d ticks", label, n)
	}
	if on.TimeSec != off.TimeSec {
		t.Errorf("%s: completion time diverged: on %v, off %v", label, on.TimeSec, off.TimeSec)
	}
	if math.Float64bits(on.EnergyJ) != math.Float64bits(off.EnergyJ) || on.EnergyBD != off.EnergyBD {
		t.Errorf("%s: energy diverged: on %v %+v, off %v %+v", label, on.EnergyJ, on.EnergyBD, off.EnergyJ, off.EnergyBD)
	}
	if math.Float64bits(on.AvgPowerW) != math.Float64bits(off.AvgPowerW) {
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
	for i, a := range fOn {
		if b := fOff[i]; a.ID != b.ID || a.Bench != b.Bench || a.Threads != b.Threads || a.CoreEnergy != b.CoreEnergy ||
			math.Float64bits(a.Submitted) != math.Float64bits(b.Submitted) ||
			math.Float64bits(a.Started) != math.Float64bits(b.Started) ||
			math.Float64bits(a.Completed) != math.Float64bits(b.Completed) {
			t.Errorf("%s: finish diverged at %d: on %+v, off %+v", label, i, a, b)
		}
	}
}

// assertSeriesEquivalent compares a recorded time series point by point,
// bit for bit.
func assertSeriesEquivalent(t *testing.T, label string, on, off *trace.Series) {
	t.Helper()
	if !reflect.DeepEqual(on.Points(), off.Points()) {
		t.Errorf("%s: series diverged between batched and per-tick replays", label)
	}
}

// TestEvaluationCoalescingEquivalence replays the Table IV evaluation (all
// four system configurations, fixed seed) batched and per tick and asserts
// the results are bit-identical — including the daemon's
// zero-voltage-emergency invariant holding in both modes.
func TestEvaluationCoalescingEquivalence(t *testing.T) {
	spec := chip.XGene3Spec()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 600}, 42)
	for _, cfg := range SystemConfigs() {
		on, sOn, err := evaluate(sim.New(spec), wl, cfg)
		if err != nil {
			t.Fatalf("%v coalesced: %v", cfg, err)
		}
		off, sOff, err := evaluate(perTick(spec), wl, cfg)
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
			t.Errorf("%v: no ticks were coalesced", cfg)
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
	on, sOn, err := evaluate(sim.New(spec), wl, Optimal)
	if err != nil {
		t.Fatal(err)
	}
	off, sOff, err := evaluate(perTick(spec), wl, Optimal)
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
