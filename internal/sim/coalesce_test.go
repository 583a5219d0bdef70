package sim

import (
	"math"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/power"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

// perTick registers a hook whose boundary is always now, so m commits
// every tick on its own: the serial oracle batched stepping must equal.
func perTick(m *Machine) *Machine {
	m.OnTickBounded(nil, m.Now)
	return m
}

// newRun returns a fresh X-Gene 3 machine, stepped per tick unless
// coalesce.
func newRun(coalesce bool) *Machine {
	if coalesce {
		return xg3()
	}
	return perTick(xg3())
}

// TestHourRunExactTicks pins the integer-time contract: an hour of
// simulation is exactly 360 000 ticks with Now derived from the count, no
// matter how the hour is sliced or whether ticks are batched.
func TestHourRunExactTicks(t *testing.T) {
	for _, coalesce := range []bool{true, false} {
		m := newRun(coalesce)
		m.RunFor(3600)
		if m.Ticks() != 360000 {
			t.Errorf("coalesce=%v: 1-hour run took %d ticks, want 360000", coalesce, m.Ticks())
		}
		if want := float64(m.Ticks()) * m.Tick; m.Now() != want {
			t.Errorf("coalesce=%v: Now()=%v, want ticks*Tick=%v", coalesce, m.Now(), want)
		}
	}
	// Slicing the run must not change the tick count: the FP drift of the
	// old now += dt accumulation showed up exactly here.
	m := xg3()
	for i := 0; i < 3600; i++ {
		m.RunFor(1)
	}
	if m.Ticks() != 360000 {
		t.Errorf("3600 x RunFor(1) took %d ticks, want 360000", m.Ticks())
	}
}

// TestMigrationStallBoundary pins the tick a migrated thread resumes on:
// a 0.5 s penalty at 10 ms ticks stalls exactly 50 ticks, with the first
// instructions retiring on the 50th tick after the migration.
func TestMigrationStallBoundary(t *testing.T) {
	m := xg3()
	m.SetMigrationPenalty(0.5)
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	if err := m.Place(p, []chip.CoreID{0}); err != nil {
		t.Fatal(err)
	}
	m.RunFor(1)
	migTick := m.Ticks()
	if err := m.Migrate(p, []chip.CoreID{2}); err != nil {
		t.Fatal(err)
	}
	for m.Ticks() < migTick+50 {
		m.Step()
		if got := m.Counters(2).Instructions; got != 0 {
			t.Fatalf("stalled thread retired %d instructions at tick %d (migrated at %d)",
				got, m.Ticks(), migTick)
		}
	}
	m.Step() // tick index migTick+50: the thread runs again
	if got := m.Counters(2).Instructions; got == 0 {
		t.Errorf("thread still stalled on tick %d, want resume at %d", m.Ticks(), migTick+50)
	}
}

// TestZeroMigrationPenaltyIsFree verifies SetMigrationPenalty(0) costs
// nothing: the migrated thread makes progress on the very next tick.
func TestZeroMigrationPenaltyIsFree(t *testing.T) {
	m := xg3()
	m.SetMigrationPenalty(0)
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	if err := m.Place(p, []chip.CoreID{0}); err != nil {
		t.Fatal(err)
	}
	m.RunFor(1)
	if err := m.Migrate(p, []chip.CoreID{2}); err != nil {
		t.Fatal(err)
	}
	m.Step()
	if got := m.Counters(2).Instructions; got == 0 {
		t.Error("free migration stalled the thread anyway")
	}
}

// machineFingerprint captures everything the equivalence contract promises.
type machineFingerprint struct {
	ticks       uint64
	now         float64
	meter       power.MeterState
	counters    []CoreCounters
	emergencies int
	emChecks    int
	finished    []RecordBits
}

func fingerprint(m *Machine) machineFingerprint {
	fp := machineFingerprint{
		ticks:       m.Ticks(),
		now:         m.Now(),
		meter:       m.Meter.State(),
		emergencies: len(m.Emergencies()),
		emChecks:    m.EmergencyChecks(),
	}
	for c := 0; c < m.Spec.Cores; c++ {
		fp.counters = append(fp.counters, m.Counters(chip.CoreID(c)))
	}
	fp.finished = BitsOf(m.Finished())
	return fp
}

// TestSerialCoalescedEquivalence runs the same scenario — including a
// mid-run V/F reprogramming that invalidates steady state — batched and
// per tick, and asserts the trajectories match bit for bit: integer
// observables, times and every energy accumulator.
func TestSerialCoalescedEquivalence(t *testing.T) {
	run := func(coalesce bool) *Machine {
		m := newRun(coalesce)
		cg := m.MustSubmit(workload.MustByName("CG"), 4)
		lu := m.MustSubmit(workload.MustByName("LU"), 4)
		nd := m.MustSubmit(workload.MustByName("namd"), 1)
		if err := m.Place(cg, []chip.CoreID{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := m.Place(lu, []chip.CoreID{4, 5, 6, 7}); err != nil {
			t.Fatal(err)
		}
		if err := m.Place(nd, []chip.CoreID{8}); err != nil {
			t.Fatal(err)
		}
		m.RunFor(5)
		// Mid-run reconfiguration: both modes must apply it on tick 500.
		m.Chip.SetAllFreq(m.Spec.HalfFreq())
		m.Chip.SetVoltage(m.Spec.NominalMV - 50)
		m.RunFor(5)
		m.Chip.SetAllFreq(m.Spec.MaxFreq)
		m.Chip.SetVoltage(m.Spec.NominalMV)
		if err := m.RunUntilIdle(24 * 3600); err != nil {
			t.Fatal(err)
		}
		if coalesced := m.CoalescedTicks() != 0; coalesced != coalesce {
			t.Errorf("batched run %v, but %d ticks were coalesced", coalesce, m.CoalescedTicks())
		}
		return m
	}

	on := fingerprint(run(true))
	off := fingerprint(run(false))

	if on.ticks != off.ticks || on.now != off.now {
		t.Errorf("time diverged: on %d ticks/%v, off %d ticks/%v", on.ticks, on.now, off.ticks, off.now)
	}
	if on.meter != off.meter {
		t.Errorf("energy diverged: on %+v, off %+v", on.meter, off.meter)
	}
	for c := range on.counters {
		if on.counters[c] != off.counters[c] {
			t.Errorf("core %d counters diverged: on %+v, off %+v", c, on.counters[c], off.counters[c])
		}
	}
	if on.emergencies != off.emergencies || on.emChecks != off.emChecks {
		t.Errorf("emergency accounting diverged: on %d/%d, off %d/%d",
			on.emergencies, on.emChecks, off.emergencies, off.emChecks)
	}
	if len(on.finished) != len(off.finished) {
		t.Fatalf("finish counts diverged: on %d, off %d", len(on.finished), len(off.finished))
	}
	for i := range on.finished {
		if on.finished[i] != off.finished[i] {
			t.Errorf("finish record %d diverged: on %+v, off %+v", i, on.finished[i], off.finished[i])
		}
	}
}

// TestBoundedHookSampleInstants verifies a bounded hook observes its
// boundary ticks exactly as serial stepping would: samples land on the
// first tick at or past each multiple of the interval, in both modes.
func TestBoundedHookSampleInstants(t *testing.T) {
	sample := func(coalesce bool) []float64 {
		m := newRun(coalesce)
		p := m.MustSubmit(workload.MustByName("namd"), 1)
		if err := m.Place(p, []chip.CoreID{0}); err != nil {
			t.Fatal(err)
		}
		var samples []float64
		next := 0.25
		m.OnTickBounded(func(mm *Machine, _ int) {
			if mm.Now()+1e-12 >= next {
				samples = append(samples, mm.Now())
				next += 0.25
			}
		}, func() float64 { return next })
		m.RunFor(2)
		return samples
	}
	on := sample(true)
	off := sample(false)
	if len(on) != 8 || len(off) != 8 {
		t.Fatalf("want 8 samples in 2s at 0.25s interval, got on=%d off=%d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Errorf("sample %d instant diverged: on %v, off %v", i, on[i], off[i])
		}
		if want := 0.25 * float64(i+1); math.Abs(on[i]-want) > 1e-9 {
			t.Errorf("sample %d at %v, want ~%v", i, on[i], want)
		}
	}
}

// TestLegacyOnTickForcesSerial: a per-tick legacy hook must see every
// tick, so its presence disables batching entirely.
func TestLegacyOnTickForcesSerial(t *testing.T) {
	m := xg3()
	ticks := 0
	m.OnTick(func(*Machine) { ticks++ })
	m.RunFor(10)
	if m.CoalescedTicks() != 0 {
		t.Errorf("legacy OnTick present but %d ticks were coalesced", m.CoalescedTicks())
	}
	if ticks != int(m.Ticks()) {
		t.Errorf("legacy hook saw %d ticks of %d", ticks, m.Ticks())
	}
}

// TestIdleCoalesces: an idle machine is the extreme steady state — almost
// every tick should replay from the cache.
func TestIdleCoalesces(t *testing.T) {
	m := xg3()
	m.RunFor(3600)
	if ratio := float64(m.CoalescedTicks()) / float64(m.Ticks()); ratio < 0.9 {
		t.Errorf("idle hour coalesced only %.1f%% of ticks", 100*ratio)
	}
}

// TestSteadyStepAllocationFree: once the steady cache is primed, Step
// must not allocate.
func TestSteadyStepAllocationFree(t *testing.T) {
	m := xg3()
	p := m.MustSubmit(workload.MustByName("CG"), 8)
	cores, _ := ClusteredCores(m.Spec, 8)
	if err := m.Place(p, cores); err != nil {
		t.Fatal(err)
	}
	m.RunFor(1) // prime the cache
	allocs := testing.AllocsPerRun(200, func() { m.Step() })
	if allocs != 0 {
		t.Errorf("steady Step allocates %.1f objects per tick, want 0", allocs)
	}
}

// TestControlPathAllocationFree pins the control work a loaded X-Gene 3
// machine does per full tick and per placement decision at zero
// allocations: the requirement after a frequency-class change, the
// utilized-PMD count, the safe-Vmin model itself, and a Reassign that
// migrates one running process with no event log attached.
func TestControlPathAllocationFree(t *testing.T) {
	m := xg3()
	cg := m.MustSubmit(workload.MustByName("CG"), 8)
	cores, _ := ClusteredCores(m.Spec, 8)
	if err := m.Place(cg, cores); err != nil {
		t.Fatal(err)
	}
	var lbm *Process
	for i, name := range []string{"lbm", "namd", "milc", "gcc"} {
		p := m.MustSubmit(workload.MustByName(name), 1)
		if err := m.Place(p, []chip.CoreID{chip.CoreID(16 + 2*i)}); err != nil {
			t.Fatal(err)
		}
		if name == "lbm" {
			lbm = p
		}
	}
	m.RunFor(1)
	spec := m.Spec
	all, _ := ClusteredCores(spec, spec.Cores)
	toHigh := map[*Process][]chip.CoreID{lbm: {30}}
	toLow := map[*Process][]chip.CoreID{lbm: {16}}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"RequiredSafeVmin after a frequency-class change", func() {
			f := spec.HalfFreq()
			if m.Chip.PMDFreq(0) == f {
				f = spec.MaxFreq
			}
			gen := m.Chip.Generation()
			m.Chip.SetPMDFreq(0, f)
			if m.Chip.Generation() == gen {
				t.Fatal("precondition: the frequency write must change the chip")
			}
			m.RequiredSafeVmin()
		}},
		{"UtilizedPMDCount", func() { m.UtilizedPMDCount() }},
		{"vmin.SafeVmin", func() {
			cfg := vmin.Config{Spec: spec, FreqClass: clock.FullSpeed, Cores: all, Bench: cg.Bench}
			vmin.SafeVmin(&cfg)
		}},
		{"Reassign migrating one process", func() {
			assign := toHigh
			if lbm.Threads[0].Core == 30 {
				assign = toLow
			}
			if err := m.Reassign(assign); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", tc.name, allocs)
		}
	}
}
