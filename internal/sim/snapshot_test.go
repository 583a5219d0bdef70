package sim_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"avfs/internal/benchkit"
	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/power"
	"avfs/internal/sim"
	"avfs/internal/stateeq"
	"avfs/internal/workload"
)

// roundTrip serializes and re-parses a machine state, mimicking exactly
// what the snapshot store does on the wire — the test must cover the JSON
// path, not just the in-memory copy.
func roundTrip(t *testing.T, st *sim.MachineState) *sim.MachineState {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var out sim.MachineState
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// daemonPair builds a (machine, daemon) stack the way a fleet session
// does, with the standard mixed workload submitted for the daemon to place.
func daemonPair() (*sim.Machine, *daemon.Daemon) {
	m := sim.New(chip.XGene3Spec())
	d := daemon.New(m, daemon.DefaultConfig())
	d.Attach()
	refillDaemon(m)
	return m, d
}

// restorePair rebuilds a (machine, daemon) stack from captured state, in
// the same wiring order the original used.
func restorePair(t *testing.T, mst *sim.MachineState, dst *daemon.State) (*sim.Machine, *daemon.Daemon) {
	t.Helper()
	m2, err := sim.RestoreMachine(chip.XGene3Spec(), mst)
	if err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}
	d2 := daemon.New(m2, daemon.DefaultConfig())
	d2.Attach()
	if err := d2.RestoreState(dst); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	return m2, d2
}

// captureBoth snapshots machine and daemon, bouncing both through JSON.
func captureBoth(t *testing.T, m *sim.Machine, d *daemon.Daemon) (*sim.MachineState, *daemon.State) {
	t.Helper()
	dst, err := d.CaptureState()
	if err != nil {
		t.Fatalf("daemon CaptureState: %v", err)
	}
	raw, err := json.Marshal(dst)
	if err != nil {
		t.Fatal(err)
	}
	var dst2 daemon.State
	if err := json.Unmarshal(raw, &dst2); err != nil {
		t.Fatal(err)
	}
	return roundTrip(t, m.CaptureState()), &dst2
}

// TestSnapshotRestoreImmediate captures a mid-run machine and verifies the
// restored machine is bit-identical before any further stepping.
func TestSnapshotRestoreImmediate(t *testing.T) {
	m, d := daemonPair()
	m.RunFor(20)
	mst, dst := captureBoth(t, m, d)
	m2, _ := restorePair(t, mst, dst)
	if d := stateeq.Diff(m.CaptureState(), m2.CaptureState()); d != "" {
		t.Fatalf("immediate restore: %s", d)
	}
}

// TestSnapshotReplayBitIdentical is the determinism contract: snapshot a
// mid-run session, restore it, feed both sides identical inputs, and
// every integer counter and float trajectory must match bit for bit —
// including across new submissions, process completions and daemon
// reconfiguration decisions.
func TestSnapshotReplayBitIdentical(t *testing.T) {
	m, d := daemonPair()
	m.RunFor(17.3) // a non-boundary instant, mid workload

	mst, dst := captureBoth(t, m, d)
	m2, _ := restorePair(t, mst, dst)
	if d := stateeq.Diff(m.CaptureState(), m2.CaptureState()); d != "" {
		t.Fatalf("at capture: %s", d)
	}

	// Identical inputs on both sides: advance, submit mid-run, advance.
	for _, mm := range []*sim.Machine{m, m2} {
		mm.RunFor(30)
		if _, err := mm.Submit(workload.MustByName("mcf"), 1); err != nil {
			t.Fatal(err)
		}
		mm.RunFor(60)
	}
	if d := stateeq.Diff(m.CaptureState(), m2.CaptureState()); d != "" {
		t.Fatalf("after replay: %s", d)
	}
}

// TestSnapshotMidCoalescedBatch pins the hardest restore case: capturing
// while the steady-state cache is live. A restore that dropped the cache
// would recompute the next tick through the contention fixed point and
// drift by ulps; the snapshot must carry the frozen tick verbatim.
func TestSnapshotMidCoalescedBatch(t *testing.T) {
	// A hook-free machine with a static placement reaches steady state and
	// coalesces; stopping after a run leaves the cache live.
	m := busyMachine()
	m.RunFor(5)

	st := m.CaptureState()
	if st.Steady == nil {
		t.Fatal("steady cache not live at capture; the test must cover the coalesced path")
	}
	if len(st.Steady.Upds) == 0 {
		t.Fatal("live steady cache with no commit quanta")
	}

	m2, err := sim.RestoreMachine(chip.XGene3Spec(), roundTrip(t, st))
	if err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}
	if d := stateeq.Diff(m.CaptureState(), m2.CaptureState()); d != "" {
		t.Fatalf("at capture: %s", d)
	}

	m.RunFor(25)
	m2.RunFor(25)
	if d := stateeq.Diff(m.CaptureState(), m2.CaptureState()); d != "" {
		t.Fatalf("after coalesced replay: %s", d)
	}
}

// TestSnapshotForkDivergence forks two children off one snapshot and runs
// them under different inputs: they must diverge from each other while the
// control child stays bit-identical to the parent.
func TestSnapshotForkDivergence(t *testing.T) {
	m, d := daemonPair()
	m.RunFor(12)
	mst, dst := captureBoth(t, m, d)

	control, _ := restorePair(t, mst, dst)
	variant, _ := restorePair(t, mst, dst)
	if _, err := variant.Submit(workload.MustByName("lbm"), 1); err != nil {
		t.Fatal(err)
	}

	m.RunFor(40)
	control.RunFor(40)
	variant.RunFor(40)

	if d := stateeq.Diff(m.CaptureState(), control.CaptureState()); d != "" {
		t.Fatalf("control child: %s", d)
	}
	if math.Float64bits(m.Meter.Energy()) == math.Float64bits(variant.Meter.Energy()) {
		t.Error("variant child with extra work matched the parent's energy exactly")
	}
}

// TestSnapshotRestoreValidation exercises the reject paths: wrong chip
// model and malformed shapes must error, not corrupt.
func TestSnapshotRestoreValidation(t *testing.T) {
	m, _ := daemonPair()
	m.RunFor(2)
	st := m.CaptureState()

	if _, err := sim.RestoreMachine(chip.XGene2Spec(), st); err == nil {
		t.Error("restore onto the wrong chip model must fail")
	}
	bad := roundTrip(t, st)
	bad.Counters = bad.Counters[:1]
	if _, err := sim.RestoreMachine(chip.XGene3Spec(), bad); err == nil {
		t.Error("restore with truncated counters must fail")
	}
	bad2 := roundTrip(t, st)
	for _, tick := range []float64{0, -0.01, math.Inf(1), math.NaN(), sim.MaxTick * 2} {
		bad2.Tick = tick
		if _, err := sim.RestoreMachine(chip.XGene3Spec(), bad2); err == nil {
			t.Errorf("restore with tick %v must fail", tick)
		}
	}
	bad2.Tick = sim.MaxTick
	if _, err := sim.RestoreMachine(chip.XGene3Spec(), bad2); err != nil {
		t.Errorf("restore with tick MaxTick: %v", err)
	}
}

// TestRestoreKeepsPendingVFEvents: a machine captured right after a
// reprogram, before the next full tick has logged it, owes V/F events.
// The restored machine must log them as the original does, so every
// capture instant of a daemon run replays the original's event log.
func TestRestoreKeepsPendingVFEvents(t *testing.T) {
	const window = 0.5
	m, d := daemonPair()
	m.EnableEventLog()
	type capture struct {
		at     float64
		logged int
		mst    *sim.MachineState
		dst    *daemon.State
	}
	var caps []capture
	for m.Now() < 1.5 {
		m.Step()
		if _, err := d.CaptureState(); err != nil {
			continue // a staged transition is in flight
		}
		mst, dst := captureBoth(t, m, d)
		caps = append(caps, capture{m.Now(), len(m.Events()), mst, dst})
	}
	m.RunFor(window)
	events := m.Events()
	owed := 0
	for _, c := range caps {
		if c.logged < len(events) {
			if e := events[c.logged]; e.At == c.at && (e.Kind == sim.EvVoltage || e.Kind == sim.EvFreq) {
				owed++
			}
		}
		m2, _ := restorePair(t, c.mst, c.dst)
		m2.EnableEventLog()
		m2.RunFor(window)
		cutoff := c.at + window - m.Tick/2
		var want, got []string
		for _, e := range events[c.logged:] {
			if e.At < cutoff {
				want = append(want, e.String())
			}
		}
		for _, e := range m2.Events() {
			if e.At < cutoff {
				got = append(got, e.String())
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("restored at %.2fs: events\n%v\nwant\n%v", c.at, got, want)
		}
	}
	if owed == 0 {
		t.Fatal("precondition: no capture instant owed a V/F event")
	}
}

// restoreBase is a captured X-Gene 2 machine (small, so the fuzzer's
// seed stays short) with three running processes (IDs 0-2: CG on cores
// 0-3, namd on 4, lbm on 5), one pending process (ID 3, mcf) and a live
// steady cache.
func restoreBase(t testing.TB) *sim.MachineState {
	t.Helper()
	m := sim.New(chip.XGene2Spec())
	for _, r := range []struct {
		bench string
		cores []chip.CoreID
	}{{"CG", []chip.CoreID{0, 1, 2, 3}}, {"namd", []chip.CoreID{4}}, {"lbm", []chip.CoreID{5}}} {
		p, err := m.Submit(workload.MustByName(r.bench), len(r.cores))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Place(p, r.cores); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit(workload.MustByName("mcf"), 1); err != nil {
		t.Fatal(err)
	}
	m.RunFor(2)
	st := m.CaptureState()
	if st.Steady == nil || len(st.Processes) != 4 || st.Processes[3].State != int(sim.Pending) {
		t.Fatalf("unexpected base state: steady=%v processes=%d", st.Steady != nil, len(st.Processes))
	}
	return st
}

// addRecord appends a well-formed record of a finished namd to st under
// the next ID, as if one more process had been submitted and finished.
func addRecord(st *sim.MachineState) *sim.Record {
	st.Finished = append(st.Finished, sim.Record{ID: st.NextID, Bench: "namd", Threads: 1,
		Submitted: 0, Started: 0, Completed: float64(st.Ticks) * st.Tick})
	st.NextID++
	return &st.Finished[len(st.Finished)-1]
}

// TestRestoreRejectsMalformed feeds RestoreMachine one malformed state
// per case, each the shape a peer could send through a cluster import.
// Every one must be rejected rather than restored into a machine that
// panics on its first step or makes every later capture scan a huge ID
// range.
func TestRestoreRejectsMalformed(t *testing.T) {
	base := restoreBase(t)
	if _, err := sim.RestoreMachine(chip.XGene2Spec(), roundTrip(t, base)); err != nil {
		t.Fatalf("the unmodified base must restore: %v", err)
	}
	withRecords := roundTrip(t, base)
	addRecord(withRecords)
	addRecord(withRecords).Threads = 8
	if _, err := sim.RestoreMachine(chip.XGene2Spec(), withRecords); err != nil {
		t.Fatalf("the base with two well-formed records must restore: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(st *sim.MachineState)
	}{
		{"running thread off core", func(st *sim.MachineState) { st.Processes[0].Threads[0].Core = -1 }},
		{"running thread past the last core", func(st *sim.MachineState) { st.Processes[1].Threads[0].Core = 8 }},
		{"pending thread on a core", func(st *sim.MachineState) { st.Processes[3].Threads[0].Core = 6 }},
		{"finished thread on a core", func(st *sim.MachineState) { st.Processes[2].State = int(sim.Finished) }},
		{"unknown state", func(st *sim.MachineState) { st.Processes[1].State = 3 }},
		{"negative state", func(st *sim.MachineState) { st.Processes[3].State = -1 }},
		{"ID gap", func(st *sim.MachineState) { st.Processes[2].ID = 7 }},
		{"duplicate ID", func(st *sim.MachineState) { st.Processes[2].ID = 1 }},
		{"inflated next ID", func(st *sim.MachineState) { st.NextID = 1 << 40 }},
		{"negative next ID", func(st *sim.MachineState) { st.NextID = -1 }},
		{"wrapping tick count", func(st *sim.MachineState) { st.Ticks = 1<<64 - 1 }},
		{"tick above MaxTick", func(st *sim.MachineState) { st.Tick = 1e308 }},
		{"tick just above MaxTick", func(st *sim.MachineState) { st.Tick = math.Nextafter(sim.MaxTick, 2) }},
		{"meter energy out of range", func(st *sim.MachineState) { st.Meter.Leakage.Hi = sim.MaxTicks }},
		{"process core energy out of range", func(st *sim.MachineState) { st.Processes[0].CoreEnergy.Hi = 1<<64 - 1 }},
		{"negative peak power", func(st *sim.MachineState) { st.Meter.PeakW = -1e300 }},
		{"stall fraction out of range", func(st *sim.MachineState) { st.Processes[1].Threads[0].StallFrac = -1e300 }},
		{"missing process", func(st *sim.MachineState) { st.Processes = st.Processes[:3] }},
		{"steady quantum on another core", func(st *sim.MachineState) { st.Steady.Upds[0].Core = 6 }},
		{"steady quantum for a pending thread", func(st *sim.MachineState) {
			st.Steady.Upds[0].Core = -1 // where the pending process's thread sits
		}},
		{"V/F mirror missing a PMD", func(st *sim.MachineState) { st.MirrorFreqMHz = st.MirrorFreqMHz[:3] }},
		{"residency missing a PMD", func(st *sim.MachineState) { st.Residency = st.Residency[:3] }},
		{"residency with a class the chip lacks", func(st *sim.MachineState) {
			st.Residency[0] = append(st.Residency[0], 0)
		}},
		{"residency short of the tick count", func(st *sim.MachineState) { st.Residency[1][0]-- }},
		{"residency past the tick count", func(st *sim.MachineState) { st.Residency[2][1]++ }},
		{"residency wrapping its sum", func(st *sim.MachineState) { st.Residency[3][1] = -st.Ticks }},
		{"mirror frequency off the grid", func(st *sim.MachineState) { st.MirrorFreqMHz[0] = 2399 }},
		{"mirror frequency above the maximum", func(st *sim.MachineState) { st.MirrorFreqMHz[1] = 4800 }},
		{"mirror voltage above nominal", func(st *sim.MachineState) { st.MirrorVoltageMV = 5000 }},
		{"mirror voltage below the floor", func(st *sim.MachineState) { st.MirrorVoltageMV = -1 }},
		{"live process with no threads", func(st *sim.MachineState) { st.Processes[3].Threads = nil }},
		{"record with no threads", func(st *sim.MachineState) { addRecord(st).Threads = 0 }},
		{"record with more threads than cores", func(st *sim.MachineState) { addRecord(st).Threads = 9 }},
		{"record with an unknown benchmark", func(st *sim.MachineState) { addRecord(st).Bench = "no-such-bench" }},
		{"record core energy out of range", func(st *sim.MachineState) { addRecord(st).CoreEnergy.Hi = sim.MaxTicks }},
		{"record ID repeated", func(st *sim.MachineState) {
			id := addRecord(st).ID
			addRecord(st).ID = id
		}},
		{"record ID also live", func(st *sim.MachineState) { addRecord(st).ID = st.Processes[2].ID }},
		{"record ID at next ID", func(st *sim.MachineState) { addRecord(st).ID = st.NextID }},
		{"negative record ID", func(st *sim.MachineState) { addRecord(st).ID = -1 }},
		{"record beyond next ID's count", func(st *sim.MachineState) {
			addRecord(st)
			st.NextID--
		}},
		{"record short of next ID's count", func(st *sim.MachineState) {
			addRecord(st)
			addRecord(st)
			st.Finished = st.Finished[:1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := roundTrip(t, base)
			tc.edit(st)
			if _, err := sim.RestoreMachine(chip.XGene2Spec(), st); err == nil {
				t.Fatal("malformed state restored without error")
			}
		})
	}
}

// FuzzRestoreMachine drives arbitrary JSON through the snapshot trust
// boundary, seeded with a full-history, a trimmed, an extreme, an
// owed-V/F-events and a folded-history state: whatever RestoreMachine accepts must step and
// capture again without panicking.
// It steps one simulated second, capped at 1e5 ticks so a mutated
// sub-microsecond tick cannot stall the fuzzer.
func FuzzRestoreMachine(f *testing.F) {
	// The largest legal tick and meter: one tick of MaxTick seconds on an
	// accumulator one tick below the range bound.
	extreme := restoreBase(f)
	extreme.Tick = sim.MaxTick
	extreme.Meter.CoreDynamic = power.Joules{Hi: sim.MaxTicks - 1, Lo: 1<<64 - 1}
	// A capture right after a reprogram: the chip is at half clock and a
	// lower voltage, the mirror still at what the last full tick ran.
	pending := restoreBase(f)
	pending.Steady = nil
	pending.VoltageMV = 900
	for p := range pending.PMDFreqMHz {
		pending.PMDFreqMHz[p] = 1200
	}
	for _, st := range []*sim.MachineState{restoreBase(f), restoreTrimmed(f), extreme, pending, restoreFolded(f)} {
		raw, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st sim.MachineState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		m, err := sim.RestoreMachine(chip.XGene2Spec(), &st)
		if err != nil {
			return
		}
		m.RunFor(math.Min(1, 1e5*st.Tick))
		m.CaptureState()
	})
}

// snapshotBenchReport is the JSON summary recorded as BENCH_snapshot.json:
// the sides' median costs and the median per-pair speedup with its
// quartiles.
type snapshotBenchReport struct {
	benchkit.Env
	ColdMS          float64 `json:"cold_ms"`
	RestoreReplayMS float64 `json:"restore_replay_ms"`
	Speedup         float64 `json:"speedup"`
	SpeedupP25      float64 `json:"speedup_p25"`
	SpeedupP75      float64 `json:"speedup_p75"`
	SpeedupFloor    float64 `json:"speedup_floor"`
	Pairs           int     `json:"pairs"`
	SnapshotBytes   int     `json:"snapshot_bytes"`
	BaseSeconds     float64 `json:"base_seconds"`
	ReplaySeconds   float64 `json:"replay_seconds"`
}

// TestSnapshotRestoreBudget is the CI perf gate for the fast-forward
// value of snapshots: restoring at T and replaying X seconds must beat
// cold-running 0..T+X by at least the floor in the median of interleaved
// pairs (internal/benchkit), while producing the bit-identical end
// state. Runs only when AVFS_BENCH_SNAPSHOT_OUT names the report path
// (scripts/check.sh sets it).
func TestSnapshotRestoreBudget(t *testing.T) {
	out := os.Getenv("AVFS_BENCH_SNAPSHOT_OUT")
	if out == "" {
		t.Skip("set AVFS_BENCH_SNAPSHOT_OUT=<file> to run the snapshot restore benchmark")
	}
	const (
		baseSeconds   = 900.0
		replaySeconds = 30.0
		floor         = 2.0
		pairs         = 31
	)

	// The base phase carries repeated workload waves so a cold re-run has
	// real contention churn to redo; the replay window rides the tail.
	baseRun := func(mm *sim.Machine, until float64) {
		for at := 0.0; at+100 <= until; at += 100 {
			mm.RunFor(at + 100 - mm.Now())
			refillDaemon(mm)
		}
		mm.RunFor(until - mm.Now())
	}

	// Capture once at T.
	m, d := daemonPair()
	baseRun(m, baseSeconds)
	mst, dst := captureBoth(t, m, d)
	raw, err := json.Marshal(mst)
	if err != nil {
		t.Fatal(err)
	}

	coldRun := func() *sim.Machine {
		cm, _ := daemonPair()
		baseRun(cm, baseSeconds)
		cm.RunFor(replaySeconds)
		return cm
	}
	// A real restore parses a stored payload; it never re-serializes one,
	// so only the decode leg of the JSON trip is on the clock.
	warmRun := func() *sim.Machine {
		var st sim.MachineState
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		wm, _ := restorePair(t, &st, dst)
		wm.RunFor(replaySeconds)
		return wm
	}

	// The restored trajectory must land exactly where the cold one does.
	cold := coldRun()
	warm := warmRun()
	if d := stateeq.Diff(cold.CaptureState(), warm.CaptureState()); d != "" {
		t.Fatalf("fast-forward equivalence: %s", d)
	}

	// The restore path is the baseline, so the per-pair ratio is the
	// cold run's cost over it: the speedup.
	timed := func(run func() *sim.Machine) func() float64 {
		return func() float64 {
			t0 := time.Now()
			run()
			return time.Since(t0).Seconds() * 1e3
		}
	}
	c := benchkit.Pairs(pairs, timed(warmRun), timed(coldRun))
	r := snapshotBenchReport{
		Env:             c.Env,
		ColdMS:          c.VariantMedian,
		RestoreReplayMS: c.BaseMedian,
		Speedup:         c.Ratio,
		SpeedupP25:      c.RatioP25,
		SpeedupP75:      c.RatioP75,
		SpeedupFloor:    floor,
		Pairs:           pairs,
		SnapshotBytes:   len(raw),
		BaseSeconds:     baseSeconds,
		ReplaySeconds:   replaySeconds,
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("snapshot fast-forward: cold %.2fms vs restore+replay %.2fms, speedup %.2fx [%.2fx, %.2fx] over %d pairs (floor %.0fx), report written to %s\n",
		r.ColdMS, r.RestoreReplayMS, r.Speedup, r.SpeedupP25, r.SpeedupP75, pairs, floor, out)
	if r.Speedup < floor {
		t.Errorf("restore+replay speedup %.2fx in the median pair, want >= %.0fx", r.Speedup, floor)
	}
}
