package daemon

import (
	"math"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/power"
	"avfs/internal/sim"
	"avfs/internal/workload"
)

// blockedRun is an X-Gene 2 Optimal daemon with more threads submitted
// than the chip has cores: eight single-threaded programs fill all eight
// cores, and an 8-thread CG waits behind them at the head of the FIFO,
// with two more programs queued behind it. lbm shares PMD 0 with a namd,
// so its first classification (memory-intensive) changes the placement
// plan but not the chip: retune keeps PMD 0 at full speed, and only the
// daemon's class epoch records that the plan changed.
func blockedRun(t *testing.T, perTick bool) (*sim.Machine, *Daemon) {
	t.Helper()
	m := sim.New(chip.XGene2Spec())
	d := New(m, DefaultConfig())
	d.Attach()
	if perTick {
		// The oracle: forget the blocked key after every commit, so every
		// tick with work pending replans, as if the skip did not exist.
		m.OnTickBounded(func(*sim.Machine, int) { d.blockedOK = false }, func() float64 { return 0 })
	}
	for _, name := range []string{"namd", "lbm", "namd", "gcc", "namd", "h264ref", "namd", "gcc"} {
		m.MustSubmit(workload.MustByName(name), 1)
	}
	m.MustSubmit(workload.MustByName("CG"), 8)
	m.MustSubmit(workload.MustByName("mcf"), 1)
	m.MustSubmit(workload.MustByName("namd"), 1)
	return m, d
}

// fingerprint is every observable the skip must leave untouched.
type fingerprint struct {
	ticks               uint64
	emergencies, checks int
	stats               Stats
	reconfigs           int64
	finished            []sim.Record
	counters            []sim.CoreCounters
	meter               power.MeterState
}

func fingerprintOf(m *sim.Machine, d *Daemon) fingerprint {
	f := fingerprint{
		ticks:       m.Ticks(),
		emergencies: len(m.Emergencies()),
		checks:      m.EmergencyChecks(),
		stats:       d.Stats(),
		reconfigs:   d.Reconfigurations(),
		meter:       m.Meter.State(),
	}
	f.finished = append(f.finished, m.Finished()...)
	for c := 0; c < m.Spec.Cores; c++ {
		f.counters = append(f.counters, m.Counters(chip.CoreID(c)))
	}
	return f
}

// compareFingerprints: every observable bit for bit, energies included.
func compareFingerprints(t *testing.T, label string, got, want fingerprint) {
	t.Helper()
	if got.ticks != want.ticks || got.emergencies != want.emergencies || got.checks != want.checks {
		t.Errorf("%s: ticks/emergencies/checks %d/%d/%d, want %d/%d/%d", label,
			got.ticks, got.emergencies, got.checks, want.ticks, want.emergencies, want.checks)
	}
	if got.stats != want.stats || got.reconfigs != want.reconfigs {
		t.Errorf("%s: stats %+v reconfigs %d, want %+v reconfigs %d", label, got.stats, got.reconfigs, want.stats, want.reconfigs)
	}
	if len(got.finished) != len(want.finished) {
		t.Fatalf("%s: %d finished, want %d", label, len(got.finished), len(want.finished))
	}
	for i, w := range want.finished {
		if g := got.finished[i]; g.ID != w.ID || g.Bench != w.Bench || g.Threads != w.Threads || g.CoreEnergy != w.CoreEnergy ||
			math.Float64bits(g.Submitted) != math.Float64bits(w.Submitted) ||
			math.Float64bits(g.Started) != math.Float64bits(w.Started) ||
			math.Float64bits(g.Completed) != math.Float64bits(w.Completed) {
			t.Errorf("%s: finish %d = %+v, want %+v", label, i, g, w)
		}
	}
	for c := range want.counters {
		if got.counters[c] != want.counters[c] {
			t.Errorf("%s: core %d counters %+v, want %+v", label, c, got.counters[c], want.counters[c])
		}
	}
	if got.meter != want.meter {
		t.Errorf("%s: meter %+v, want %+v", label, got.meter, want.meter)
	}
}

// headBlocked reports whether the FIFO head is waiting for cores.
func headBlocked(m *sim.Machine) bool {
	h := m.PendingHead()
	return h != nil && len(h.Threads) > m.FreeCoreCount()
}

// TestBlockedQueueSkipMatchesPerTickReplans is the oracle for the blocked
// key: skipping the no-op replans of a blocked queue must leave every
// observable equal to replanning on every tick, through the class flip
// that changes the plan while the queue is blocked, the completions that
// unblock it, and the drain to idle. The skipping run must coalesce while
// blocked; the per-tick reference cannot.
func TestBlockedQueueSkipMatchesPerTickReplans(t *testing.T) {
	ref, refD := blockedRun(t, true)
	run, runD := blockedRun(t, false)

	// Through the first classification: lbm flips to memory-intensive
	// with the queue blocked, and the replan that follows migrates it.
	ref.RunFor(2)
	run.RunFor(2)
	if !headBlocked(run) {
		t.Fatal("precondition: the CG head must still be blocked at 2 s")
	}
	if runD.Stats().Migrations == 0 {
		t.Fatal("precondition: the class flip under a blocked queue must migrate")
	}
	compareFingerprints(t, "at 2 s", fingerprintOf(run, runD), fingerprintOf(ref, refD))

	// A blocked stretch: the skipping run coalesces, the reference steps
	// every tick.
	c0, r0 := run.CoalescedTicks(), ref.CoalescedTicks()
	ref.RunFor(10)
	run.RunFor(10)
	if !headBlocked(run) {
		t.Fatal("precondition: the CG head must still be blocked at 12 s")
	}
	if grew := run.CoalescedTicks() - c0; grew < 500 {
		t.Errorf("blocked stretch coalesced %d of 1000 ticks, want most of them", grew)
	}
	if grew := ref.CoalescedTicks() - r0; grew != 0 {
		t.Errorf("per-tick reference coalesced %d ticks; the oracle hook is not forcing replans", grew)
	}
	compareFingerprints(t, "at 12 s", fingerprintOf(run, runD), fingerprintOf(ref, refD))

	// An outside write to the chip while blocked (a composed governor, an
	// operator) moves only the chip generation; the next replan must undo
	// it in both runs.
	for _, m := range []*sim.Machine{ref, run} {
		m.Chip.SetPMDFreq(0, m.Spec.MinFreq)
		m.Chip.SetVoltage(m.Spec.NominalMV)
	}
	ref.RunFor(1)
	run.RunFor(1)
	if !headBlocked(run) || run.Chip.Voltage() == run.Spec.NominalMV {
		t.Fatal("precondition: the queue stays blocked and the daemon re-settles the voltage")
	}
	compareFingerprints(t, "after an outside chip write", fingerprintOf(run, runD), fingerprintOf(ref, refD))

	if err := ref.RunUntilIdle(24 * 3600); err != nil {
		t.Fatal(err)
	}
	if err := run.RunUntilIdle(24 * 3600); err != nil {
		t.Fatal(err)
	}
	compareFingerprints(t, "idle", fingerprintOf(run, runD), fingerprintOf(ref, refD))
}

// TestBlockedRestoreMatchesContinuous: a snapshot taken in the middle of a
// blocked stretch — the blocked key is not part of it — restores into a
// daemon whose first replan is a no-op, so the restored run equals the
// continuous one.
func TestBlockedRestoreMatchesContinuous(t *testing.T) {
	cont, contD := blockedRun(t, false)
	cont.RunFor(6)
	if !headBlocked(cont) || !contD.blockedOK {
		t.Fatal("precondition: the snapshot must be taken while the queue is blocked")
	}
	ds, err := contD.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	ms := cont.CaptureState()

	m2, err := sim.RestoreMachine(chip.XGene2Spec(), ms)
	if err != nil {
		t.Fatal(err)
	}
	d2 := New(m2, DefaultConfig())
	d2.Attach()
	if err := d2.RestoreState(ds); err != nil {
		t.Fatal(err)
	}
	reconfigs := d2.Reconfigurations()
	m2.RunFor(1)
	if !headBlocked(m2) || d2.Reconfigurations() != reconfigs || !d2.blockedOK {
		t.Errorf("restored daemon's first replan reconfigured (%d -> %d) or recorded no blocked key (%v)",
			reconfigs, d2.Reconfigurations(), d2.blockedOK)
	}
	cont.RunFor(1)
	compareFingerprints(t, "1 s after restore", fingerprintOf(m2, d2), fingerprintOf(cont, contD))

	if err := cont.RunUntilIdle(24 * 3600); err != nil {
		t.Fatal(err)
	}
	if err := m2.RunUntilIdle(24 * 3600); err != nil {
		t.Fatal(err)
	}
	compareFingerprints(t, "idle", fingerprintOf(m2, d2), fingerprintOf(cont, contD))
}

// TestSteadyPollAllocationFree pins the monitoring loop's steady state: a
// poll that closes every program's window, classifies it without a flip
// and re-arms the window in place allocates nothing — and neither does
// the coalesced stepping between polls.
func TestSteadyPollAllocationFree(t *testing.T) {
	m, d := newOptimal(t, chip.XGene3Spec())
	for _, name := range []string{"namd", "lbm", "gcc", "milc"} {
		m.MustSubmit(workload.MustByName(name), 1)
	}
	m.MustSubmit(workload.MustByName("CG"), 4)
	m.RunFor(3) // placed, classified, windows open
	before := d.Stats()
	allocs := testing.AllocsPerRun(20, func() { m.RunFor(d.Cfg.PollInterval) })
	after := d.Stats()
	if after.ClassFlips != before.ClassFlips || after.Placements != before.Placements || len(m.Finished()) != 0 {
		t.Fatal("precondition: the measured polls must be steady (no flips, arrivals or completions)")
	}
	if polls := after.Polls - before.Polls; polls < 20 || after.Classifications-before.Classifications < 5*polls {
		t.Fatalf("precondition: every measured poll must classify every program (%d polls, %d classifications)",
			polls, after.Classifications-before.Classifications)
	}
	if allocs != 0 {
		t.Errorf("steady poll allocates %v times per poll interval, want 0", allocs)
	}
}

// TestCurrentRequiredAllocationFree: the Table II requirement of the
// present placement and frequencies, which every transition and every
// applied check reads, allocates nothing on a loaded machine.
func TestCurrentRequiredAllocationFree(t *testing.T) {
	m, d := newOptimal(t, chip.XGene3Spec())
	for _, name := range []string{"namd", "lbm", "gcc", "milc"} {
		m.MustSubmit(workload.MustByName(name), 1)
	}
	m.MustSubmit(workload.MustByName("CG"), 8)
	m.RunFor(3)
	if m.RunningCount() != 5 {
		t.Fatalf("precondition: every program placed, %d running", m.RunningCount())
	}
	if allocs := testing.AllocsPerRun(100, func() { d.currentRequired() }); allocs != 0 {
		t.Errorf("currentRequired allocates %v objects per call, want 0", allocs)
	}
}
