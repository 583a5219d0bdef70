package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/workload"
)

func xg3() *Machine { return New(chip.XGene3Spec()) }
func xg2() *Machine { return New(chip.XGene2Spec()) }

func runSolo(t *testing.T, m *Machine, bench string, cores []chip.CoreID) *Process {
	t.Helper()
	p, err := m.RunProcess(workload.MustByName(bench), cores)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPendingFIFOMaintained: the pending FIFO keeps submission order
// through placements of its head and of later entries, PendingHead
// follows it, and a snapshot restores it; every placement-affecting
// change advances PlacementGeneration.
func TestPendingFIFOMaintained(t *testing.T) {
	m := xg2()
	var ps []*Process
	gen := m.PlacementGeneration()
	for _, name := range []string{"namd", "lbm", "gcc", "mcf"} {
		ps = append(ps, m.MustSubmit(workload.MustByName(name), 1))
		if g := m.PlacementGeneration(); g <= gen {
			t.Fatalf("submit did not advance the placement generation (%d -> %d)", gen, g)
		}
		gen = m.PlacementGeneration()
	}
	want := func(label string, m *Machine, ids ...int) {
		t.Helper()
		got := m.Pending()
		if len(got) != len(ids) || m.PendingCount() != len(ids) {
			t.Fatalf("%s: %d pending (count %d), want %v", label, len(got), m.PendingCount(), ids)
		}
		for i, p := range got {
			if p.ID != ids[i] {
				t.Fatalf("%s: pending[%d] = %d, want %v", label, i, p.ID, ids)
			}
		}
		if h := m.PendingHead(); (h == nil) != (len(ids) == 0) || (h != nil && h.ID != ids[0]) {
			t.Fatalf("%s: PendingHead = %v, want the head of %v", label, h, ids)
		}
	}
	want("submitted", m, 0, 1, 2, 3)
	if err := m.Place(ps[2], []chip.CoreID{4}); err != nil { // out of FIFO order
		t.Fatal(err)
	}
	want("middle placed", m, 0, 1, 3)
	if err := m.Reassign(map[*Process][]chip.CoreID{ps[0]: {0}}); err != nil {
		t.Fatal(err)
	}
	want("head placed", m, 1, 3)
	if m.PlacementGeneration() <= gen || m.FreeCoreCount() != m.Spec.Cores-2 {
		t.Fatalf("placements: generation %d (was %d), %d free cores", m.PlacementGeneration(), gen, m.FreeCoreCount())
	}
	if v := m.RunningView(); len(v) != 2 || v[0] != ps[0] || v[1] != ps[2] {
		t.Fatalf("RunningView = %v, want processes 0 and 2", v)
	}
	r, err := RestoreMachine(m.Spec, m.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	want("restored", r, 1, 3)
	if err := r.Place(r.PendingHead(), []chip.CoreID{6}); err != nil {
		t.Fatal(err)
	}
	want("restored head placed", r, 3)
	want("original untouched", m, 1, 3)
}

func TestProcessLifecycle(t *testing.T) {
	m := xg3()
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	if p.State != Pending || len(m.Pending()) != 1 {
		t.Fatal("submitted process must be pending")
	}
	if err := m.Place(p, []chip.CoreID{5}); err != nil {
		t.Fatal(err)
	}
	if p.State != Running || p.Started < 0 {
		t.Fatal("placed process must be running")
	}
	m.RunUntilIdle(24 * 3600)
	if p.State != Finished || p.Completed <= 0 {
		t.Fatal("process must finish")
	}
	if len(m.Finished()) != 1 || m.Finished()[0].ID != p.ID || m.ProcessByID(p.ID) != nil {
		t.Error("finished list must hold the process's record, and only there")
	}
	if m.ThreadOn(5) != nil {
		t.Error("core must be vacated after completion")
	}
}

func TestRuntimeMatchesModel(t *testing.T) {
	m := xg3()
	p := runSolo(t, m, "namd", []chip.CoreID{0})
	want := workload.MustByName("namd").SoloRuntime(3.0)
	if math.Abs(p.Runtime()-want)/want > 0.01 {
		t.Errorf("namd solo runtime %.1fs, model %.1fs", p.Runtime(), want)
	}
}

func TestFrequencySensitivityByClass(t *testing.T) {
	// CPU-intensive runtime doubles at half clock; memory-intensive
	// barely moves (the paper's central performance observation).
	run := func(bench string, f chip.MHz) float64 {
		m := xg3()
		m.Chip.SetAllFreq(f)
		return runSolo(t, m, bench, []chip.CoreID{0}).Runtime()
	}
	epRatio := run("EP", 1500) / run("EP", 3000)
	if epRatio < 1.9 || epRatio > 2.1 {
		t.Errorf("EP half-clock slowdown %.2fx, want ~2x", epRatio)
	}
	cgRatio := run("CG", 1500) / run("CG", 3000)
	if cgRatio > 1.25 {
		t.Errorf("CG half-clock slowdown %.2fx, want <1.25x", cgRatio)
	}
}

func TestL2SharingPenalty(t *testing.T) {
	// Two memory-heavy threads on one PMD run slower than on two PMDs.
	clustered := xg3()
	var cl [2]*Process
	for i := 0; i < 2; i++ {
		cl[i] = clustered.MustSubmit(workload.MustByName("milc"), 1)
	}
	clustered.Place(cl[0], []chip.CoreID{0})
	clustered.Place(cl[1], []chip.CoreID{1})
	clustered.RunUntilIdle(24 * 3600)

	spread := xg3()
	var sp [2]*Process
	for i := 0; i < 2; i++ {
		sp[i] = spread.MustSubmit(workload.MustByName("milc"), 1)
	}
	spread.Place(sp[0], []chip.CoreID{0})
	spread.Place(sp[1], []chip.CoreID{2})
	spread.RunUntilIdle(24 * 3600)

	if cl[0].Runtime() <= sp[0].Runtime()*1.05 {
		t.Errorf("clustered milc %.1fs should be clearly slower than spreaded %.1fs",
			cl[0].Runtime(), sp[0].Runtime())
	}

	// CPU-intensive pairs barely care.
	clustered2 := xg3()
	a := clustered2.MustSubmit(workload.MustByName("namd"), 1)
	b := clustered2.MustSubmit(workload.MustByName("namd"), 1)
	clustered2.Place(a, []chip.CoreID{0})
	clustered2.Place(b, []chip.CoreID{1})
	clustered2.RunUntilIdle(24 * 3600)
	solo := xg3()
	c := runSolo(t, solo, "namd", []chip.CoreID{0})
	if a.Runtime() > c.Runtime()*1.05 {
		t.Errorf("namd pair on one PMD %.1fs vs solo %.1fs: too much interference",
			a.Runtime(), c.Runtime())
	}
}

func TestContentionRatioOrdering(t *testing.T) {
	// Fig. 8: full-chip copies of milc slow down a lot; namd does not.
	ratio := func(bench string) float64 {
		solo := xg3()
		p := runSolo(t, solo, bench, []chip.CoreID{0})
		t1 := p.Runtime()
		full := xg3()
		var procs []*Process
		for i := 0; i < full.Spec.Cores; i++ {
			q := full.MustSubmit(workload.MustByName(bench), 1)
			if err := full.Place(q, []chip.CoreID{chip.CoreID(i)}); err != nil {
				t.Fatal(err)
			}
			procs = append(procs, q)
		}
		full.RunUntilIdle(24 * 3600)
		return t1 / procs[0].Runtime()
	}
	milc := ratio("milc")
	namd := ratio("namd")
	if namd < 0.95 {
		t.Errorf("namd contention ratio %.2f, want ~1", namd)
	}
	if milc > 0.7 {
		t.Errorf("milc contention ratio %.2f, want well below 1", milc)
	}
}

func TestParallelAmdahlSplit(t *testing.T) {
	m := xg3()
	cores, _ := SpreadedCores(m.Spec, 8)
	p := runSolo(t, m, "EP", cores)
	solo := xg3()
	q := runSolo(t, solo, "EP", []chip.CoreID{0})
	speedup := q.Runtime() / p.Runtime()
	if speedup < 6.5 || speedup > 8.1 {
		t.Errorf("EP 8-thread speedup %.1fx, want near-linear", speedup)
	}
}

func TestPlaceValidation(t *testing.T) {
	m := xg3()
	p := m.MustSubmit(workload.MustByName("CG"), 4)
	if err := m.Place(p, []chip.CoreID{0, 1}); err == nil {
		t.Error("wrong core count must error")
	}
	if err := m.Place(p, []chip.CoreID{0, 1, 2, 2}); err == nil {
		t.Error("duplicate cores must error")
	}
	if err := m.Place(p, []chip.CoreID{0, 1, 2, 99}); err == nil {
		t.Error("invalid core must error")
	}
	if err := m.Place(p, []chip.CoreID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	q := m.MustSubmit(workload.MustByName("namd"), 1)
	if err := m.Place(q, []chip.CoreID{2}); err == nil {
		t.Error("occupied core must error")
	}
	if err := m.Place(p, []chip.CoreID{4, 5, 6, 7}); err == nil {
		t.Error("re-placing a running process must error (use Migrate)")
	}
}

func TestMigrate(t *testing.T) {
	m := xg3()
	p := m.MustSubmit(workload.MustByName("CG"), 2)
	m.Place(p, []chip.CoreID{0, 1})
	m.RunFor(1)
	if err := m.Migrate(p, []chip.CoreID{10, 12}); err != nil {
		t.Fatal(err)
	}
	if m.ThreadOn(0) != nil || m.ThreadOn(10) == nil {
		t.Error("migration did not move occupancy")
	}
	// Overlapping self-migration is allowed.
	if err := m.Migrate(p, []chip.CoreID{10, 11}); err != nil {
		t.Fatal(err)
	}
	// Work survives migration.
	m.RunUntilIdle(24 * 3600)
	if p.State != Finished {
		t.Error("migrated process must still finish")
	}
}

func TestReassignAtomicPermutation(t *testing.T) {
	m := xg3()
	a := m.MustSubmit(workload.MustByName("namd"), 1)
	b := m.MustSubmit(workload.MustByName("milc"), 1)
	m.Place(a, []chip.CoreID{0})
	m.Place(b, []chip.CoreID{1})
	// Swap their cores — impossible with pairwise Migrate calls.
	err := m.Reassign(map[*Process][]chip.CoreID{
		a: {1},
		b: {0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.ThreadOn(0).Proc != b || m.ThreadOn(1).Proc != a {
		t.Error("swap not applied")
	}
}

func TestReassignValidation(t *testing.T) {
	m := xg3()
	a := m.MustSubmit(workload.MustByName("namd"), 1)
	b := m.MustSubmit(workload.MustByName("milc"), 1)
	m.Place(a, []chip.CoreID{0})
	m.Place(b, []chip.CoreID{1})
	if err := m.Reassign(map[*Process][]chip.CoreID{a: {1}}); err == nil {
		t.Error("stealing an outsider's core must error")
	}
	if err := m.Reassign(map[*Process][]chip.CoreID{a: {5}, b: {5}}); err == nil {
		t.Error("double assignment must error")
	}
	if err := m.Reassign(map[*Process][]chip.CoreID{a: {5, 6}}); err == nil {
		t.Error("thread-count mismatch must error")
	}
	// Pending processes are placed by Reassign.
	c := m.MustSubmit(workload.MustByName("gcc"), 1)
	if err := m.Reassign(map[*Process][]chip.CoreID{c: {8}}); err != nil {
		t.Fatal(err)
	}
	if c.State != Running {
		t.Error("pending process must start on Reassign")
	}
}

func TestCountersMonotoneAndPlausible(t *testing.T) {
	m := xg3()
	p := m.MustSubmit(workload.MustByName("CG"), 1)
	m.Place(p, []chip.CoreID{0})
	m.RunFor(1)
	c1 := m.Counters(0)
	if c1.Cycles == 0 || c1.Instructions == 0 || c1.L3CAccesses == 0 {
		t.Fatal("counters must advance while running")
	}
	// ~3e9 cycles/s at 3 GHz.
	if c1.Cycles < 2.9e9 || c1.Cycles > 3.1e9 {
		t.Errorf("cycles after 1s at 3GHz = %d", c1.Cycles)
	}
	m.RunFor(1)
	c2 := m.Counters(0)
	if c2.Cycles <= c1.Cycles || c2.Instructions <= c1.Instructions {
		t.Error("counters must be monotone")
	}
	if m.Counters(5).Cycles != 0 {
		t.Error("idle cores must not count cycles")
	}
}

func TestVoltageEmergencyDetected(t *testing.T) {
	m := xg3()
	m.Chip.SetVoltage(700) // far below any multicore safe Vmin
	p := m.MustSubmit(workload.MustByName("CG"), 32)
	cores, _ := ClusteredCores(m.Spec, 32)
	m.Place(p, cores)
	m.RunFor(0.1)
	if len(m.Emergencies()) == 0 {
		t.Fatal("undervolted full-load machine must record emergencies")
	}
	e := m.Emergencies()[0]
	if e.Required <= e.Voltage {
		t.Errorf("emergency must record required > programmed: %+v", e)
	}
}

func TestNoEmergencyAtNominal(t *testing.T) {
	m := xg2()
	p := m.MustSubmit(workload.MustByName("lbm"), 1)
	m.Place(p, []chip.CoreID{0})
	m.RunFor(1)
	if len(m.Emergencies()) != 0 {
		t.Error("nominal voltage must never be an emergency")
	}
}

func TestRequiredSafeVminIdle(t *testing.T) {
	m := xg3()
	if got := m.RequiredSafeVmin(); got != m.Spec.MinSafeMV {
		t.Errorf("idle machine requires %v, want regulator floor", got)
	}
}

func TestRequiredSafeVminTracksUtilization(t *testing.T) {
	m := xg3()
	p1 := m.MustSubmit(workload.MustByName("milc"), 1)
	m.Place(p1, []chip.CoreID{0})
	few := m.RequiredSafeVmin()
	var rest []*Process
	for i := 1; i < 16; i++ {
		q := m.MustSubmit(workload.MustByName("milc"), 1)
		m.Place(q, []chip.CoreID{chip.CoreID(2 * i)})
		rest = append(rest, q)
	}
	_ = rest
	many := m.RequiredSafeVmin()
	if many <= few {
		t.Errorf("16-PMD requirement %v must exceed 1-PMD requirement %v", many, few)
	}
	// Table II: 16 utilized PMDs at full speed need 830 mV (the envelope;
	// per-workload offsets can only lower it).
	if many > 830 {
		t.Errorf("requirement %v exceeds the Table II envelope 830mV", many)
	}
}

func TestEnergyAccumulatesEvenIdle(t *testing.T) {
	m := xg2()
	m.RunFor(2)
	if m.Meter.Energy() <= 0 {
		t.Error("idle machine still consumes energy")
	}
	// Both clocks derive from the integer tick count.
	if m.Now() != m.Meter.Seconds() {
		t.Errorf("meter time %.12f != sim time %.12f", m.Meter.Seconds(), m.Now())
	}
}

func TestOnFinishAndOnTickCallbacks(t *testing.T) {
	m := xg3()
	ticks, finishes := 0, 0
	m.OnTick(func(*Machine) { ticks++ })
	m.OnFinish(func(*Process) { finishes++ })
	p := m.MustSubmit(workload.MustByName("IS"), 8)
	cores, _ := ClusteredCores(m.Spec, 8)
	m.Place(p, cores)
	m.RunUntilIdle(24 * 3600)
	if ticks == 0 || finishes != 1 {
		t.Errorf("ticks=%d finishes=%d", ticks, finishes)
	}
}

func TestRunUntilIdleTimeout(t *testing.T) {
	m := xg3()
	m.MustSubmit(workload.MustByName("namd"), 1) // never placed
	if err := m.RunUntilIdle(1); err == nil {
		t.Error("stuck pending process must time out")
	}
}

// TestUntilIdleWindowMatchesRunFor: an until-idle window the machine
// does not finish commits exactly the ticks a RunFor window of the same
// length does. From ticks 41 and 68, start·Tick + 1 s rounds above the
// tick grid, where a deadline without RunFor's slop committed a 101st
// tick.
func TestUntilIdleWindowMatchesRunFor(t *testing.T) {
	ctx := context.Background()
	for _, start := range []int{41, 42, 68} {
		ticks := func(run func(m *Machine) error) uint64 {
			m := xg3()
			p := m.MustSubmit(workload.MustByName("CG"), 8)
			cores, _ := ClusteredCores(m.Spec, 8)
			if err := m.Place(p, cores); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < start; i++ {
				m.Step()
			}
			before := m.Ticks()
			if err := run(m); err != nil && !errors.Is(err, ErrNotIdle) {
				t.Fatal(err)
			}
			if m.RunningCount() == 0 {
				t.Fatal("precondition: the window must not reach idle")
			}
			return m.Ticks() - before
		}
		runFor := ticks(func(m *Machine) error { return m.RunForContext(ctx, 1.0) })
		untilIdleCtx := ticks(func(m *Machine) error { return m.RunUntilIdleContext(ctx, 1.0) })
		untilIdle := ticks(func(m *Machine) error { return m.RunUntilIdle(1.0) })
		if runFor != 100 || untilIdleCtx != runFor || untilIdle != runFor {
			t.Errorf("from tick %d: RunForContext %d ticks, RunUntilIdleContext %d, RunUntilIdle %d; want 100 each",
				start, runFor, untilIdleCtx, untilIdle)
		}
	}
}

// TestRequiredVminCacheMatchesRecompute: the memoized requirement is an
// exact oracle. Baseline-like trajectories (Place and Migrate onto random
// free cores) and daemon-like ones (whole-machine Reassign plans) on both
// chips mix in voltage-only writes, frequency changes within one class,
// frequency-class flips, aging drift, migrations and completions; after
// every change and at every commit RequiredSafeVmin must equal a
// from-scratch computeRequiredVmin.
func TestRequiredVminCacheMatchesRecompute(t *testing.T) {
	benches := []string{"CG", "LU", "EP", "namd", "lbm", "mcf", "milc", "gcc"}
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		for _, daemonLike := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/daemon-like=%v", spec.Name, daemonLike), func(t *testing.T) {
				m := New(spec)
				rng := rand.New(rand.NewSource(7))
				check := func(where string) {
					t.Helper()
					if got, want := m.RequiredSafeVmin(), m.computeRequiredVmin(); got != want {
						t.Fatalf("%s at tick %d: cached requirement %v, recomputed %v", where, m.Ticks(), got, want)
					}
				}
				m.OnTickBounded(func(*Machine, int) { check("commit") }, func() float64 { return math.Inf(1) })
				// classFreqs groups the selectable frequencies by class.
				classFreqs := map[clock.FreqClass][]chip.MHz{}
				for _, f := range spec.FreqSteps() {
					fc := clock.ClassOf(spec, f)
					classFreqs[fc] = append(classFreqs[fc], f)
				}
				pick := func(n int) []chip.CoreID {
					free := m.FreeCores()
					rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
					return free[:n]
				}
				threadsOf := func(b *workload.Benchmark) int {
					if !b.Parallel {
						return 1
					}
					return 1 + rng.Intn(spec.Cores/2)
				}
				// replan reassigns every running process, plus p when it is
				// pending, onto a random permutation of the cores.
				replan := func(p *Process) {
					all := rng.Perm(spec.Cores)
					assign := map[*Process][]chip.CoreID{}
					next := 0
					for _, q := range append(m.Running(), p) {
						if q == nil || assign[q] != nil {
							continue
						}
						cores := make([]chip.CoreID, len(q.Threads))
						for i := range cores {
							cores[i] = chip.CoreID(all[next])
							next++
						}
						assign[q] = cores
					}
					if err := m.Reassign(assign); err != nil {
						t.Fatal(err)
					}
				}
				for round := 0; round < 400; round++ {
					switch op := rng.Intn(8); op {
					case 0, 1: // arrival
						b := workload.MustByName(benches[rng.Intn(len(benches))])
						n := threadsOf(b)
						if n > m.FreeCoreCount() {
							continue
						}
						p := m.MustSubmit(b, n)
						check("submit")
						if daemonLike {
							replan(p)
						} else if err := m.Place(p, pick(n)); err != nil {
							t.Fatal(err)
						}
					case 2: // voltage-only write
						m.Chip.SetVoltage(spec.MinSafeMV + chip.Millivolts(rng.Intn(int(spec.NominalMV-spec.MinSafeMV)+1)))
					case 3: // frequency change within the PMD's class
						pmd := chip.PMDID(rng.Intn(spec.PMDs()))
						same := classFreqs[clock.ClassOf(spec, m.Chip.PMDFreq(pmd))]
						m.Chip.SetPMDFreq(pmd, same[rng.Intn(len(same))])
					case 4: // frequency-class flip
						pmd := chip.PMDID(rng.Intn(spec.PMDs()))
						steps := spec.FreqSteps()
						m.Chip.SetPMDFreq(pmd, steps[rng.Intn(len(steps))])
					case 5:
						m.SetVminDrift(chip.Millivolts(rng.Intn(40)))
					case 6: // migration
						running := m.Running()
						if len(running) == 0 {
							continue
						}
						if daemonLike {
							replan(nil)
							break
						}
						p := running[rng.Intn(len(running))]
						cores := append(p.Cores(), m.FreeCores()...)
						rng.Shuffle(len(cores), func(i, j int) { cores[i], cores[j] = cores[j], cores[i] })
						if err := m.Migrate(p, cores[:len(p.Threads)]); err != nil {
							t.Fatal(err)
						}
					case 7: // run, with completions
						m.RunFor(rng.Float64() * 10)
					}
					check(fmt.Sprintf("round %d", round))
				}
				if m.FinishedCount() == 0 || m.Ticks() == 0 {
					t.Fatalf("precondition: the trajectory must complete work (finished %d, ticks %d)", m.FinishedCount(), m.Ticks())
				}
			})
		}
	}
}

func TestSingleThreadedRejectsMultipleThreads(t *testing.T) {
	m := xg3()
	if _, err := m.Submit(workload.MustByName("namd"), 4); err == nil {
		t.Error("SPEC programs must reject thread counts > 1")
	}
	if _, err := m.Submit(workload.MustByName("CG"), 0); err == nil {
		t.Error("0 threads must be rejected")
	}
}

// TestRandomPlacementNeverDoubleOccupies drives random placement,
// migration and completion traffic and checks the occupancy invariant
// after every step.
func TestRandomPlacementNeverDoubleOccupies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := xg3()
	pool := workload.GeneratorPool()
	var live []*Process
	for step := 0; step < 400; step++ {
		switch rng.Intn(3) {
		case 0: // submit + place on random free cores
			b := pool[rng.Intn(len(pool))]
			n := 1
			if b.Parallel {
				n = 1 + rng.Intn(4)
			}
			free := m.FreeCores()
			if len(free) < n {
				break
			}
			rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
			p := m.MustSubmit(b, n)
			if err := m.Place(p, free[:n]); err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		case 1: // migrate a random live process
			if len(live) == 0 {
				break
			}
			p := live[rng.Intn(len(live))]
			if p.State != Running {
				break
			}
			free := append(m.FreeCores(), p.Cores()...)
			if len(free) < len(p.Threads) {
				break
			}
			rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
			if err := m.Migrate(p, free[:len(p.Threads)]); err != nil {
				t.Fatal(err)
			}
		case 2:
			m.RunFor(0.2)
		}
		// Invariant: every core hosts at most one thread, and thread
		// core fields agree with the occupancy map.
		seen := map[chip.CoreID]bool{}
		for _, p := range m.Running() {
			for _, th := range p.Threads {
				if th.Core < 0 {
					t.Fatal("running process with unplaced thread")
				}
				if seen[th.Core] {
					t.Fatalf("core %d double-occupied", th.Core)
				}
				seen[th.Core] = true
				if m.ThreadOn(th.Core) != th {
					t.Fatal("occupancy map out of sync")
				}
			}
		}
	}
}

func TestProcStateString(t *testing.T) {
	if Pending.String() != "pending" || Running.String() != "running" || Finished.String() != "finished" {
		t.Error("state names")
	}
}

func TestMigrationPenaltyStallsThreads(t *testing.T) {
	m := xg3()
	m.SetMigrationPenalty(0.5)
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	m.Place(p, []chip.CoreID{0})
	m.RunFor(1)
	instrBefore := m.Counters(0).Instructions
	if err := m.Migrate(p, []chip.CoreID{2}); err != nil {
		t.Fatal(err)
	}
	m.RunFor(0.4) // still inside the penalty window
	if got := m.Counters(2).Instructions; got != 0 {
		t.Errorf("stalled thread retired %d instructions", got)
	}
	m.RunFor(0.5) // past the window
	if got := m.Counters(2).Instructions; got == 0 {
		t.Error("thread never resumed after the penalty window")
	}
	_ = instrBefore
}

func TestReassignSameCoresNoPenalty(t *testing.T) {
	m := xg3()
	m.SetMigrationPenalty(10)
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	m.Place(p, []chip.CoreID{0})
	m.RunFor(0.2)
	before := m.Counters(0).Instructions
	// Reassigning to the same core is not a migration.
	if err := m.Reassign(map[*Process][]chip.CoreID{p: {0}}); err != nil {
		t.Fatal(err)
	}
	m.RunFor(0.2)
	if got := m.Counters(0).Instructions; got <= before {
		t.Error("no-op reassign charged a migration penalty")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (float64, uint64) {
		m := xg3()
		a := m.MustSubmit(workload.MustByName("CG"), 4)
		b := m.MustSubmit(workload.MustByName("namd"), 1)
		cores, _ := SpreadedCores(m.Spec, 4)
		m.Place(a, cores)
		m.Place(b, []chip.CoreID{1})
		m.RunUntilIdle(24 * 3600)
		return m.Meter.Energy(), m.Counters(0).Instructions
	}
	e1, i1 := run()
	e2, i2 := run()
	if e1 != e2 || i1 != i2 {
		t.Errorf("identical runs diverged: %v/%v vs %v/%v", e1, i1, e2, i2)
	}
}
