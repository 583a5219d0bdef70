package sim_test

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/sim"
)

// steadyTemplate builds the standard mixed load, converges it, and
// captures the state: every restore of it is a bit-identical machine
// with a live steady cache, the shape of a forked fleet session.
func steadyTemplate(t testing.TB) *sim.MachineState {
	t.Helper()
	m := sim.New(chip.XGene3Spec())
	fillBusy(m)
	m.RunFor(2)
	return m.CaptureState()
}

func restoreFrom(t testing.TB, st *sim.MachineState) *sim.Machine {
	t.Helper()
	m, err := sim.RestoreMachine(chip.XGene3Spec(), st)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMemoServeBitIdentical: a machine serving its steady ticks from a
// memo another machine populated must follow the exact trajectory it
// would have computed itself — bitwise, including every energy
// accumulator, because serve replays the publisher's tick in the same
// per-tick order solo stepping uses.
func TestMemoServeBitIdentical(t *testing.T) {
	st := steadyTemplate(t)
	run := func(m *sim.Machine) *sim.MachineState {
		m.RunFor(5)
		m.Chip.SetAllFreq(m.Spec.HalfFreq())
		m.Chip.SetVoltage(m.Spec.NominalMV - 40)
		m.RunFor(5)
		m.Chip.SetAllFreq(m.Spec.MaxFreq)
		m.Chip.SetVoltage(m.Spec.NominalMV)
		m.RunFor(5)
		return m.CaptureState()
	}

	plain := run(restoreFrom(t, st))

	memo := sim.NewSteadyMemo(0)
	pub := restoreFrom(t, st)
	pub.SetSteadyMemo(memo)
	published := run(pub)
	if !reflect.DeepEqual(published, plain) {
		gj, _ := json.Marshal(published)
		wj, _ := json.Marshal(plain)
		t.Fatalf("memo-publishing run diverged from plain run:\n got %s\nwant %s", gj, wj)
	}
	if memo.Inserts() == 0 {
		t.Fatal("publishing run inserted no segments")
	}

	sub := restoreFrom(t, st)
	sub.SetSteadyMemo(memo)
	served := run(sub)
	if !reflect.DeepEqual(served, plain) {
		gj, _ := json.Marshal(served)
		wj, _ := json.Marshal(plain)
		t.Fatalf("memo-served run diverged from plain run:\n got %s\nwant %s", gj, wj)
	}
	if memo.Hits() == 0 {
		t.Fatal("subscribing run hit no segments")
	}
}

// TestMemoEviction: a memo bounded to one entry displaces segments on
// insert and accounts for it.
func TestMemoEviction(t *testing.T) {
	st := steadyTemplate(t)
	memo := sim.NewSteadyMemo(1)
	m := restoreFrom(t, st)
	m.SetSteadyMemo(memo)
	// Each V/F level converges to a distinct equilibrium → distinct
	// signature → one insert each, displacing the previous resident.
	m.RunFor(2)
	m.Chip.SetAllFreq(m.Spec.HalfFreq())
	m.RunFor(2)
	m.Chip.SetAllFreq(m.Spec.MaxFreq)
	m.RunFor(2)
	if memo.Inserts() < 2 {
		t.Fatalf("expected at least 2 inserts, got %d", memo.Inserts())
	}
	if memo.Evictions() == 0 {
		t.Error("bounded memo never evicted")
	}
	if memo.Len() != 1 {
		t.Errorf("memo holds %d entries, want 1", memo.Len())
	}
}

// TestMemoDetach: detaching restores pure solo stepping; counters stop
// moving.
func TestMemoDetach(t *testing.T) {
	st := steadyTemplate(t)
	memo := sim.NewSteadyMemo(0)
	m := restoreFrom(t, st)
	m.SetSteadyMemo(memo)
	if m.SteadyMemo() != memo {
		t.Fatal("SteadyMemo accessor does not round-trip")
	}
	m.RunFor(2)
	m.SetSteadyMemo(nil)
	before := memo.Misses() + memo.Hits()
	m.Chip.SetAllFreq(m.Spec.HalfFreq())
	m.RunFor(2)
	if memo.Misses()+memo.Hits() != before {
		t.Error("detached machine still probed the memo")
	}
}

// TestMemoConcurrentPublish races many publishers and subscribers on one
// memo (run under -race) and checks every machine still lands on the
// reference trajectory.
func TestMemoConcurrentPublish(t *testing.T) {
	st := steadyTemplate(t)
	ref := restoreFrom(t, st)
	ref.RunFor(8)
	want := ref.CaptureState()

	memo := sim.NewSteadyMemo(0)
	var wg sync.WaitGroup
	states := make([]*sim.MachineState, 8)
	for g := range states {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := restoreFrom(t, st)
			m.SetSteadyMemo(memo)
			m.RunFor(8)
			states[g] = m.CaptureState()
		}(g)
	}
	wg.Wait()
	for g, got := range states {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("goroutine %d diverged from reference", g)
		}
	}
}
