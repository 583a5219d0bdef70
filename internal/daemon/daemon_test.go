package daemon

import (
	"math/rand"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/sim"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

func newOptimal(t *testing.T, spec *chip.Spec) (*sim.Machine, *Daemon) {
	t.Helper()
	m := sim.New(spec)
	d := New(m, DefaultConfig())
	d.Attach()
	return m, d
}

func TestClassifiesKnownBenchmarks(t *testing.T) {
	m, d := newOptimal(t, chip.XGene3Spec())
	cg := m.MustSubmit(workload.MustByName("CG"), 4)
	namd := m.MustSubmit(workload.MustByName("namd"), 1)
	m.RunFor(2) // several poll intervals
	if got := d.ClassOf(cg); got != MemoryIntensive {
		t.Errorf("CG classified %v, want memory-intensive", got)
	}
	if got := d.ClassOf(namd); got != CPUIntensive {
		t.Errorf("namd classified %v, want cpu-intensive", got)
	}
}

func TestMemoryPMDsRunReduced(t *testing.T) {
	m, d := newOptimal(t, chip.XGene3Spec())
	cg := m.MustSubmit(workload.MustByName("CG"), 4)
	m.RunFor(2)
	if d.ClassOf(cg) != MemoryIntensive {
		t.Fatal("precondition: CG must classify memory-intensive")
	}
	for _, c := range cg.Cores() {
		if f := m.Chip.CoreFreq(c); f != m.Spec.HalfFreq() {
			t.Errorf("memory-intensive core %d at %v, want half speed", c, f)
		}
	}
}

func TestXGene2MemoryUsesDeepDivision(t *testing.T) {
	m, d := newOptimal(t, chip.XGene2Spec())
	lbm := m.MustSubmit(workload.MustByName("lbm"), 1)
	m.RunFor(2)
	if d.ClassOf(lbm) != MemoryIntensive {
		t.Fatal("precondition: lbm must classify memory-intensive")
	}
	for _, c := range lbm.Cores() {
		if f := m.Chip.CoreFreq(c); f != clock.XGene2DividedLowMax {
			t.Errorf("X-Gene 2 memory core at %v, want 900MHz (deep division)", f)
		}
	}
}

func TestCPUThreadsClusteredMemoryThreadsSpreaded(t *testing.T) {
	m, d := newOptimal(t, chip.XGene3Spec())
	var cpus, mems []*sim.Process
	for i := 0; i < 4; i++ {
		cpus = append(cpus, m.MustSubmit(workload.MustByName("namd"), 1))
	}
	for i := 0; i < 4; i++ {
		mems = append(mems, m.MustSubmit(workload.MustByName("milc"), 1))
	}
	m.RunFor(2)
	// Trigger a re-placement event so the discovered classes are acted
	// on (class flips alone never migrate — Sec. VI-A).
	m.MustSubmit(workload.MustByName("gcc"), 1)
	m.RunFor(1)

	cpuPMDs := map[chip.PMDID]bool{}
	for _, p := range cpus {
		if d.ClassOf(p) != CPUIntensive {
			t.Fatalf("namd copy classified %v", d.ClassOf(p))
		}
		for _, c := range p.Cores() {
			cpuPMDs[m.Spec.PMDOf(c)] = true
		}
	}
	if len(cpuPMDs) != 2 {
		t.Errorf("4 CPU-intensive threads occupy %d PMDs, want 2 (clustered)", len(cpuPMDs))
	}
	memPMDs := map[chip.PMDID]bool{}
	for _, p := range mems {
		if d.ClassOf(p) != MemoryIntensive {
			t.Fatalf("milc copy classified %v", d.ClassOf(p))
		}
		for _, c := range p.Cores() {
			memPMDs[m.Spec.PMDOf(c)] = true
		}
	}
	if len(memPMDs) != 4 {
		t.Errorf("4 memory-intensive threads occupy %d PMDs, want 4 (spreaded)", len(memPMDs))
	}
}

func TestVoltageTracksTableII(t *testing.T) {
	m, _ := newOptimal(t, chip.XGene3Spec())
	// 8 CPU-intensive copies clustered → 4 PMDs at full speed → Table II
	// row 2: 800 mV (+5 guard).
	for i := 0; i < 8; i++ {
		m.MustSubmit(workload.MustByName("namd"), 1)
	}
	m.RunFor(2)
	want := vmin.ClassEnvelope(m.Spec, clock.FullSpeed, 4) + 5
	if got := m.Chip.Voltage(); got != want {
		t.Errorf("voltage %v, want Table II value %v", got, want)
	}
}

func TestIdleVoltageFloorsAndNoEmergency(t *testing.T) {
	m, _ := newOptimal(t, chip.XGene3Spec())
	p := m.MustSubmit(workload.MustByName("swaptions"), 2)
	m.RunFor(1)
	if p.State != sim.Running {
		t.Fatal("process must be running")
	}
	m.RunFor(3600)
	if p.State != sim.Finished {
		t.Fatal("process must finish")
	}
	// After the last exit the daemon parks the voltage at the lowest
	// class value.
	if got := m.Chip.Voltage(); got > 800 {
		t.Errorf("idle voltage %v not parked low", got)
	}
	if n := len(m.Emergencies()); n != 0 {
		t.Fatalf("%d voltage emergencies", n)
	}
}

func TestClassFlipDoesNotMigrate(t *testing.T) {
	// Sec. VI-A: utilized PMDs change only on arrival/exit. A process
	// reclassified mid-run keeps its cores; only V/F change.
	m, d := newOptimal(t, chip.XGene3Spec())
	cg := m.MustSubmit(workload.MustByName("CG"), 4)
	m.RunFor(0.2) // placed as Unknown → clustered CPU block
	coresBefore := append([]chip.CoreID(nil), cg.Cores()...)
	m.RunFor(2) // classification flips to memory-intensive
	if d.ClassOf(cg) != MemoryIntensive {
		t.Fatal("CG must flip to memory-intensive")
	}
	coresAfter := cg.Cores()
	for i := range coresBefore {
		if coresBefore[i] != coresAfter[i] {
			t.Fatalf("class flip migrated the process: %v → %v", coresBefore, coresAfter)
		}
	}
	// ...but its PMDs must now run at the reduced frequency.
	for _, c := range coresAfter {
		if f := m.Chip.CoreFreq(c); f != m.Spec.HalfFreq() {
			t.Errorf("core %d at %v after flip, want half speed", c, f)
		}
	}
}

func TestPlacementOnlyKeepsNominalVoltage(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	d := New(m, PlacementOnlyConfig())
	d.Attach()
	m.MustSubmit(workload.MustByName("CG"), 8)
	m.MustSubmit(workload.MustByName("namd"), 1)
	m.RunFor(3)
	if m.Chip.Voltage() != m.Spec.NominalMV {
		t.Errorf("placement-only daemon changed voltage to %v", m.Chip.Voltage())
	}
	if len(m.Emergencies()) != 0 {
		t.Error("placement-only run must be emergency-free")
	}
}

func TestFIFOAdmission(t *testing.T) {
	m, _ := newOptimal(t, chip.XGene2Spec())
	first := m.MustSubmit(workload.MustByName("CG"), 8) // fills the chip
	second := m.MustSubmit(workload.MustByName("namd"), 1)
	m.RunFor(0.5)
	if first.State != sim.Running {
		t.Fatal("first process must run")
	}
	if second.State != sim.Pending {
		t.Fatal("second process must wait while the chip is full")
	}
	m.RunFor(3600)
	if second.State != sim.Finished {
		t.Error("queued process must eventually run and finish")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m, d := newOptimal(t, chip.XGene3Spec())
	m.MustSubmit(workload.MustByName("milc"), 1)
	m.MustSubmit(workload.MustByName("namd"), 1)
	m.RunFor(3)
	st := d.Stats()
	if st.Polls == 0 || st.Classifications == 0 || st.Placements != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.VoltageChanges == 0 {
		t.Error("optimal daemon must program the voltage")
	}
}

func TestClassCounts(t *testing.T) {
	m, d := newOptimal(t, chip.XGene3Spec())
	m.MustSubmit(workload.MustByName("milc"), 1)
	m.MustSubmit(workload.MustByName("namd"), 1)
	m.MustSubmit(workload.MustByName("povray"), 1)
	m.RunFor(2)
	cpu, mem := d.ClassCounts()
	if cpu != 2 || mem != 1 {
		t.Errorf("class counts = %d cpu / %d mem, want 2/1", cpu, mem)
	}
}

func TestHysteresisPreventsThrash(t *testing.T) {
	d := &Daemon{Cfg: DefaultConfig()}
	// Start CPU-intensive; a rate just above the threshold but inside
	// the hysteresis band must not flip.
	if got, _ := d.classify(CPUIntensive, 3100); got != CPUIntensive {
		t.Errorf("rate 3100 flipped to %v inside the band", got)
	}
	if got, _ := d.classify(CPUIntensive, 3400); got != MemoryIntensive {
		t.Errorf("rate 3400 stayed %v, want memory-intensive", got)
	}
	if got, _ := d.classify(MemoryIntensive, 2900); got != MemoryIntensive {
		t.Errorf("rate 2900 flipped to %v inside the band", got)
	}
	if got, _ := d.classify(MemoryIntensive, 2500); got != CPUIntensive {
		t.Errorf("rate 2500 stayed %v, want cpu-intensive", got)
	}
	if got, _ := d.classify(Unknown, 100); got != CPUIntensive {
		t.Errorf("unknown at low rate = %v", got)
	}
}

// TestFailSafeInvariantRandomTraffic is the core safety property: under
// random arrival traffic from the full generator pool, the daemon must
// never program a voltage below the machine's true instantaneous
// requirement (zero voltage emergencies), on either chip.
func TestFailSafeInvariantRandomTraffic(t *testing.T) {
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := sim.New(spec)
			d := New(m, DefaultConfig())
			d.Attach()
			pool := workload.GeneratorPool()
			for step := 0; step < 120; step++ {
				if rng.Float64() < 0.4 {
					b := pool[rng.Intn(len(pool))]
					n := 1
					if b.Parallel {
						n = []int{2, 4}[rng.Intn(2)]
					}
					m.MustSubmit(b, n)
				}
				m.RunFor(0.25 + rng.Float64())
			}
			m.RunFor(600)
			if n := len(m.Emergencies()); n != 0 {
				e := m.Emergencies()[0]
				t.Fatalf("%s seed %d: %d emergencies (first: t=%.2f V=%v required=%v)",
					spec.Name, seed, n, e.At, e.Voltage, e.Required)
			}
		}
	}
}

func TestMonitorOnlyModeLeavesPlacementAlone(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	cfg := DefaultConfig()
	cfg.AdaptPlacement = false
	cfg.AdaptVoltage = false
	d := New(m, cfg)
	d.Attach()
	p := m.MustSubmit(workload.MustByName("CG"), 2)
	if err := m.Place(p, []chip.CoreID{0, 2}); err != nil {
		t.Fatal(err)
	}
	m.RunFor(2)
	if d.ClassOf(p) != MemoryIntensive {
		t.Error("monitor-only daemon must still classify")
	}
	if m.Chip.Voltage() != m.Spec.NominalMV {
		t.Error("monitor-only daemon must not touch voltage")
	}
	if f := m.Chip.CoreFreq(0); f != m.Spec.MaxFreq {
		t.Error("monitor-only daemon must not touch frequency")
	}
}

func TestClassString(t *testing.T) {
	if Unknown.String() != "unknown" || CPUIntensive.String() != "cpu-intensive" ||
		MemoryIntensive.String() != "memory-intensive" {
		t.Error("class names")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero PollInterval should panic")
		}
	}()
	New(sim.New(chip.XGene2Spec()), Config{})
}

// TestRestoreRejectsFinishedProcess: a daemon tracks only live processes
// (its finish hook drops the others), so a snapshot that carries state for
// a finished one was not captured from a run and is refused. Accepted, the
// state would outlive the process in the machine's bounded history, and
// no later capture of the session would restore.
func TestRestoreRejectsFinishedProcess(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	d := New(m, DefaultConfig())
	d.Attach()
	p, err := m.Submit(workload.MustByName("namd"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(3600); err != nil {
		t.Fatal(err)
	}
	ds, err := d.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	ds.Procs = append(ds.Procs, ProcControlState{Proc: p.ID})
	m2, err := sim.RestoreMachine(m.Spec, m.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	d2 := New(m2, DefaultConfig())
	d2.Attach()
	if err := d2.RestoreState(ds); err == nil {
		t.Errorf("restore accepted daemon state for finished process %d", p.ID)
	}
}

// TestProcTableMatchesMap drives the daemon's process table and a map
// through the same seeded puts, gets and removals, in ascending walks
// and at random, and checks every answer and the table's ID order.
func TestProcTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	procs := make([]*sim.Process, 64)
	for i := range procs {
		procs[i] = &sim.Process{ID: 3 * i}
	}
	var tab procTable
	ref := map[int]*procState{}
	for step := 0; step < 20000; step++ {
		p := procs[rng.Intn(len(procs))]
		switch rng.Intn(4) {
		case 0:
			st := &procState{proc: p}
			tab.put(st)
			ref[p.ID] = st
		case 1:
			if got, want := tab.remove(p.ID), ref[p.ID]; got != want {
				t.Fatalf("step %d: remove(%d) = %p, want %p", step, p.ID, got, want)
			}
			delete(ref, p.ID)
		case 2:
			for _, q := range procs {
				if got, want := tab.get(q.ID), ref[q.ID]; got != want {
					t.Fatalf("step %d: ascending get(%d) = %p, want %p", step, q.ID, got, want)
				}
			}
		default: // a random ID, present or absent
			id := p.ID + rng.Intn(2)
			if got, want := tab.get(id), ref[id]; got != want {
				t.Fatalf("step %d: get(%d) = %p, want %p", step, id, got, want)
			}
		}
		if len(tab.s) != len(ref) {
			t.Fatalf("step %d: table holds %d states, map %d", step, len(tab.s), len(ref))
		}
		for i := 1; i < len(tab.s); i++ {
			if tab.s[i-1].proc.ID >= tab.s[i].proc.ID {
				t.Fatalf("step %d: table out of ID order at %d", step, i)
			}
		}
	}
}
