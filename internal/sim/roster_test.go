package sim

import (
	"math"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/stateeq"
	"avfs/internal/workload"
)

// rosterRun is an X-Gene 2 run through everything that changes the
// thread roster: a two-tick migration stall, a migration that changes L2
// sharing, a frequency write, parallel threads finishing ahead of their
// process and whole-process completions. forceRebuild drops the roster
// after every commit — the reference, which rebuilds it on every full
// tick. It returns the machine and how many full ticks reused a roster.
func rosterRun(t *testing.T, forceRebuild bool) (*Machine, int) {
	t.Helper()
	m := xg2()
	m.SetMigrationPenalty(0.02)
	if forceRebuild {
		m.OnTickBounded(func(m *Machine, _ int) { m.roster.valid = false }, nil)
	}
	place := func(bench string, cores ...chip.CoreID) *Process {
		p := m.MustSubmit(workload.MustByName(bench), len(cores))
		if err := m.Place(p, cores); err != nil {
			t.Fatal(err)
		}
		return p
	}
	place("CG", 0, 1, 2, 3)
	place("lbm", 4)
	namd := place("namd", 6)
	reused := 0
	advanceTo := func(at float64) {
		for m.Now() < at && (m.RunningCount() > 0 || m.PendingCount() > 0) {
			r := &m.roster
			if !m.steadyReady() && r.valid && r.placeGen == m.placeGen && r.chipGen == m.Chip.Generation() {
				reused++
			}
			m.Advance()
		}
	}
	advanceTo(2)
	if err := m.Reassign(map[*Process][]chip.CoreID{namd: {5}}); err != nil {
		t.Fatal(err)
	}
	advanceTo(4)
	m.Chip.SetPMDFreq(0, m.Spec.HalfFreq())
	advanceTo(math.Inf(1))
	return m, reused
}

// TestRosterReuseMatchesRebuild: reusing the thread roster across full
// ticks is a cache, not an approximation — the captured state, energies
// included, equals rebuilding it on every full tick bit for bit.
func TestRosterReuseMatchesRebuild(t *testing.T) {
	ref, refReused := rosterRun(t, true)
	run, reused := rosterRun(t, false)
	if refReused != 0 || reused == 0 {
		t.Fatalf("precondition: %d full ticks reused a roster, reference %d", reused, refReused)
	}
	if len(run.Finished()) != 3 {
		t.Fatalf("precondition: %d of 3 processes finished", len(run.Finished()))
	}
	if d := stateeq.Diff(ref.CaptureState(), run.CaptureState()); d != "" {
		t.Errorf("roster reuse diverged: %s", d)
	}
}

// TestRosterFullTickAllocationFree: a full tick that reuses the roster —
// the memory fixed point converging under an unchanged placement and V/F
// — allocates nothing.
func TestRosterFullTickAllocationFree(t *testing.T) {
	m := xg3()
	cg := m.MustSubmit(workload.MustByName("CG"), 8)
	cores, _ := ClusteredCores(m.Spec, 8)
	if err := m.Place(cg, cores); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"lbm", "namd", "milc"} {
		p := m.MustSubmit(workload.MustByName(name), 1)
		if err := m.Place(p, []chip.CoreID{chip.CoreID(16 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	m.Step() // builds the roster
	key := m.roster
	allocs := testing.AllocsPerRun(20, m.stepFull)
	if m.roster != key || !key.valid || len(m.Finished()) != 0 {
		t.Fatal("precondition: every measured full tick must reuse the roster")
	}
	if allocs != 0 {
		t.Errorf("a full tick reusing the roster allocates %v objects, want 0", allocs)
	}
}
