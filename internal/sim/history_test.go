package sim_test

import (
	"encoding/json"
	"sync"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/sim"
	"avfs/internal/stateeq"
	"avfs/internal/workload"
)

// mustMatchHistory asserts that a history-bounded machine follows the
// full-history one bit for bit, with exact totals and retained tails that
// are the newest entries of the full history.
func mustMatchHistory(t *testing.T, full, bounded *sim.Machine, limit int, tag string) {
	t.Helper()
	// The retained history is what the limit trims; the totals and tails
	// below check it.
	if d := stateeq.Diff(full.CaptureState(), bounded.CaptureState(),
		"finished", "finished_dropped", "emergencies", "emergencies_dropped"); d != "" {
		t.Fatalf("%s: trajectory diverged: %s", tag, d)
	}
	if full.FinishedCount() != bounded.FinishedCount() || full.EmergencyCount() != bounded.EmergencyCount() {
		t.Fatalf("%s: totals finished %d/%d emergencies %d/%d", tag,
			full.FinishedCount(), bounded.FinishedCount(), full.EmergencyCount(), bounded.EmergencyCount())
	}
	ff, bf := full.Finished(), bounded.Finished()
	if len(bf) != min(limit, len(ff)) {
		t.Fatalf("%s: %d finished retained, want %d", tag, len(bf), min(limit, len(ff)))
	}
	if d := stateeq.Diff(ff[len(ff)-len(bf):], bf); d != "" {
		t.Fatalf("%s: finished tail: %s", tag, d)
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
	if d := stateeq.Diff(fe[len(fe)-len(be):], be); d != "" {
		t.Fatalf("%s: emergency tail: %s", tag, d)
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

// TestCaptureKeepsItsRecords: a capture shares its machine's finished
// records read-only, and stays as it was while the machine runs on,
// finishing processes and trimming its history. Captures every 10 s meet
// the records' backing array at several lengths and spare capacities.
func TestCaptureKeepsItsRecords(t *testing.T) {
	const limit = 4
	m := sim.New(chip.XGene2Spec())
	daemon.New(m, daemon.DefaultConfig()).Attach()
	m.SetHistoryLimit(limit)
	refill := func() {
		m.MustSubmit(workload.MustByName("EP"), 2)
		for _, name := range []string{"namd", "mcf", "lbm", "milc"} {
			m.MustSubmit(workload.MustByName(name), 1)
		}
	}
	type capture struct {
		st  *sim.MachineState
		raw []byte
	}
	var caps []capture
	shared := 0
	for i := 0; i < 18; i++ {
		if i%6 == 0 {
			refill()
		}
		m.RunFor(10)
		st := m.CaptureState()
		if len(st.Finished) > 0 && &st.Finished[0] == &m.Finished()[0] {
			shared++
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, capture{st, raw})
	}
	dropped := caps[len(caps)-1].st.FinishedDropped
	for round := 0; round < 3; round++ {
		refill()
		m.RunFor(60)
	}
	if shared == 0 || m.FinishedCount()-len(m.Finished()) < dropped+limit {
		t.Fatalf("precondition: captures must share the machine's records (%d did) and the machine must trim past them",
			shared)
	}
	for i, c := range caps {
		if d := stateeq.Diff(json.RawMessage(c.raw), c.st); d != "" {
			t.Errorf("capture at %d s changed as its machine ran on: %s", 10*(i+1), d)
		}
	}
}

// TestRestoresShareOneState: machines restored from one decoded state
// share its finished records read-only, so they step at once (the race
// detector watches the records) and land on the same state, and the
// decoded state stays as it was.
func TestRestoresShareOneState(t *testing.T) {
	st := roundTrip(t, restoreFolded(t))
	want, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*sim.Machine, 2)
	for i := range ms {
		if ms[i], err = sim.RestoreMachine(chip.XGene2Spec(), st); err != nil {
			t.Fatal(err)
		}
		daemon.New(ms[i], daemon.DefaultConfig()).Attach()
		ms[i].SetHistoryLimit(len(st.Finished))
	}
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.RunFor(120)
		}()
	}
	wg.Wait()
	if n := ms[0].FinishedCount() - len(st.Finished); n < 2 {
		t.Fatalf("precondition: the restored machines must append and trim records, %d finished", n)
	}
	if d := stateeq.Diff(ms[0].CaptureState(), ms[1].CaptureState()); d != "" {
		t.Errorf("machines restored from one state diverged: %s", d)
	}
	if d := stateeq.Diff(json.RawMessage(want), st); d != "" {
		t.Errorf("the decoded state changed under its restored machines: %s", d)
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
