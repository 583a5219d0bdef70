package sim_test

import (
	"encoding/json"
	"math"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/sim"
	"avfs/internal/workload"
)

// mustMatchHistory asserts that a history-bounded machine follows the
// full-history one bit for bit, with exact totals and retained tails that
// are the newest entries of the full history.
func mustMatchHistory(t *testing.T, full, bounded *sim.Machine, limit int, tag string) {
	t.Helper()
	if full.Ticks() != bounded.Ticks() ||
		math.Float64bits(full.Meter.Energy()) != math.Float64bits(bounded.Meter.Energy()) ||
		full.EnergyBreakdown() != bounded.EnergyBreakdown() ||
		full.Chip.Voltage() != bounded.Chip.Voltage() {
		t.Fatalf("%s: trajectory diverged: ticks %d/%d energy %.17g/%.17g",
			tag, full.Ticks(), bounded.Ticks(), full.Meter.Energy(), bounded.Meter.Energy())
	}
	for c := 0; c < full.Spec.Cores; c++ {
		if full.Counters(chip.CoreID(c)) != bounded.Counters(chip.CoreID(c)) {
			t.Fatalf("%s: core %d counters diverged", tag, c)
		}
	}
	if full.FinishedCount() != bounded.FinishedCount() || full.EmergencyCount() != bounded.EmergencyCount() {
		t.Fatalf("%s: totals finished %d/%d emergencies %d/%d", tag,
			full.FinishedCount(), bounded.FinishedCount(), full.EmergencyCount(), bounded.EmergencyCount())
	}
	ff, bf := sim.BitsOf(full.Finished()), sim.BitsOf(bounded.Finished())
	if len(bf) != min(limit, len(ff)) {
		t.Fatalf("%s: %d finished retained, want %d", tag, len(bf), min(limit, len(ff)))
	}
	for i, r := range bf {
		if w := ff[len(ff)-len(bf)+i]; r != w {
			t.Fatalf("%s: finished[%d] = %+v, want %+v", tag, i, r, w)
		}
	}
	for _, r := range ff {
		if bounded.ProcessByID(r.ID) != nil {
			t.Fatalf("%s: finished process %d still resolvable", tag, r.ID)
		}
	}
	fe, be := full.Emergencies(), bounded.Emergencies()
	if len(be) != min(limit, len(fe)) {
		t.Fatalf("%s: %d emergencies retained, want %d", tag, len(be), min(limit, len(fe)))
	}
	for i, e := range be {
		if e != fe[len(fe)-len(be)+i] {
			t.Fatalf("%s: emergency[%d] = %+v, want %+v", tag, i, e, fe[len(fe)-len(be)+i])
		}
	}
}

// TestHistoryLimitMatchesFullHistory steps one workload with full history
// and with an 8-entry limit. Aged silicon makes the daemon trip voltage
// emergencies, so both tails overflow the limit many times. Every few
// rounds the bounded side goes through capture, JSON and restore; the
// limit must never change a simulated bit or a total.
func TestHistoryLimitMatchesFullHistory(t *testing.T) {
	const limit = 8
	full, _ := daemonPair()
	bounded, bd := daemonPair()
	bounded.SetHistoryLimit(limit)
	for _, m := range []*sim.Machine{full, bounded} {
		m.SetVminDrift(40)
	}
	for round := 0; round < 12; round++ {
		for _, m := range []*sim.Machine{full, bounded} {
			m.RunFor(50)
			refillDaemon(m)
		}
		if round%3 == 2 {
			mst, dst := captureBoth(t, bounded, bd)
			if n := len(mst.Processes) - bounded.RunningCount() - bounded.PendingCount(); n != 0 || len(mst.Finished) > limit {
				t.Fatalf("round %d: capture carries %d finished processes and %d records, limit %d",
					round, n, len(mst.Finished), limit)
			}
			bounded, bd = restorePair(t, mst, dst)
			bounded.SetHistoryLimit(limit)
		}
		mustMatchHistory(t, full, bounded, limit, "round")
	}
	if full.FinishedCount() <= 3*limit || full.EmergencyCount() <= 3*limit {
		t.Fatalf("workload too light: %d finished, %d emergencies", full.FinishedCount(), full.EmergencyCount())
	}
}

// restoreTrimmed is a captured X-Gene 2 machine under the Optimal daemon
// whose 2-entry history limit has dropped finished processes (so its
// retained IDs have gaps) and emergencies (the silicon is aged past the
// daemon's guard), with running and pending processes still live.
func restoreTrimmed(t testing.TB) *sim.MachineState {
	t.Helper()
	m := sim.New(chip.XGene2Spec())
	daemon.New(m, daemon.DefaultConfig()).Attach()
	m.SetHistoryLimit(2)
	for _, w := range []struct {
		name    string
		threads int
	}{{"EP", 2}, {"namd", 1}, {"mcf", 1}, {"lbm", 1}, {"CG", 2}, {"IS", 2}, {"FT", 2}, {"MG", 2}, {"LU", 2}} {
		m.MustSubmit(workload.MustByName(w.name), w.threads)
	}
	m.RunFor(95)
	m.SetVminDrift(40)
	m.RunFor(5)
	m.MustSubmit(workload.MustByName("mcf"), 1)
	st := m.CaptureState()
	if st.FinishedDropped == 0 || st.EmergenciesDropped == 0 || m.RunningCount() == 0 || m.PendingCount() == 0 {
		t.Fatalf("unexpected trimmed state: dropped %d/%d running %d pending %d",
			st.FinishedDropped, st.EmergenciesDropped, m.RunningCount(), m.PendingCount())
	}
	return st
}

// restoreFolded is a captured X-Gene 2 machine under the Optimal daemon
// that has folded many finished processes into records and kept them all,
// with running and pending processes still live.
func restoreFolded(t testing.TB) *sim.MachineState {
	t.Helper()
	m := sim.New(chip.XGene2Spec())
	daemon.New(m, daemon.DefaultConfig()).Attach()
	for round := 0; round < 6; round++ {
		for _, name := range []string{"namd", "mcf", "lbm", "milc"} {
			m.MustSubmit(workload.MustByName(name), 1)
		}
		m.MustSubmit(workload.MustByName("EP"), 2)
		m.RunFor(60)
	}
	m.MustSubmit(workload.MustByName("CG"), 8)
	m.RunFor(1)
	st := m.CaptureState()
	if len(st.Finished) < 8 || st.FinishedDropped != 0 || m.RunningCount() == 0 || m.PendingCount() == 0 {
		t.Fatalf("unexpected folded state: %d records, %d dropped, running %d pending %d",
			len(st.Finished), st.FinishedDropped, m.RunningCount(), m.PendingCount())
	}
	return st
}

// TestRestoreTrimmedRoundTrip restores a trimmed state and captures it
// again: the dropped counts and retained tails survive unchanged.
func TestRestoreTrimmedRoundTrip(t *testing.T) {
	st := restoreTrimmed(t)
	m, err := sim.RestoreMachine(chip.XGene2Spec(), roundTrip(t, st))
	if err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}
	if m.FinishedCount() != st.FinishedDropped+len(st.Finished) ||
		m.EmergencyCount() != st.EmergenciesDropped+len(st.Emergencies) {
		t.Fatalf("totals %d/%d after restore", m.FinishedCount(), m.EmergencyCount())
	}
	want, _ := json.Marshal(st)
	got, _ := json.Marshal(m.CaptureState())
	if string(got) != string(want) {
		t.Fatalf("trimmed state changed across restore:\n got %s\nwant %s", got, want)
	}
}

// TestRestoreRejectsMalformedHistory is TestRestoreRejectsMalformed for
// the trimmed shape: the dropped counts must be in range and account for
// exactly the IDs the state does not carry, and the finished records must
// list each retained finished process once.
func TestRestoreRejectsMalformedHistory(t *testing.T) {
	base := restoreTrimmed(t)
	// droppedID is an ID below NextID the trimmed state no longer carries.
	held := map[int]bool{}
	for _, ps := range base.Processes {
		held[ps.ID] = true
	}
	for _, r := range base.Finished {
		held[r.ID] = true
	}
	droppedID := 0
	for held[droppedID] {
		droppedID++
	}
	if droppedID >= base.NextID || len(base.Processes) < 2 || len(base.Finished) < 2 {
		t.Fatalf("the trimmed base has no ID gap, or too few live or finished processes: %d live, %d finished",
			len(base.Processes), len(base.Finished))
	}
	for _, tc := range []struct {
		name string
		edit func(st *sim.MachineState)
	}{
		{"negative finished dropped", func(st *sim.MachineState) {
			st.FinishedDropped = -1
			st.NextID = len(st.Processes) + len(st.Finished) - 1
		}},
		{"negative emergencies dropped", func(st *sim.MachineState) { st.EmergenciesDropped = -1 }},
		{"huge emergencies dropped", func(st *sim.MachineState) { st.EmergenciesDropped = 1 << 53 }},
		{"dropped count off by one", func(st *sim.MachineState) { st.FinishedDropped++ }},
		{"next ID past 2^53", func(st *sim.MachineState) {
			st.NextID = 1 << 53
			st.FinishedDropped = st.NextID - len(st.Processes) - len(st.Finished)
		}},
		{"ID at next ID", func(st *sim.MachineState) { st.Processes[len(st.Processes)-1].ID = st.NextID }},
		{"negative ID", func(st *sim.MachineState) { st.Processes[0].ID = -1 }},
		{"IDs descend", func(st *sim.MachineState) {
			st.Processes[0], st.Processes[1] = st.Processes[1], st.Processes[0]
		}},
		{"duplicate finish", func(st *sim.MachineState) {
			st.Finished[1] = st.Finished[0]
		}},
		{"unfinished in finish order", func(st *sim.MachineState) {
			st.Finished[0].ID = st.Processes[len(st.Processes)-1].ID
		}},
		{"finished missing from finish order", func(st *sim.MachineState) {
			st.Finished = st.Finished[1:]
		}},
		{"dropped process in finish order", func(st *sim.MachineState) {
			r := st.Finished[0]
			r.ID = droppedID
			st.Finished = append(st.Finished, r)
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
