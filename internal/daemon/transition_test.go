package daemon

import (
	"testing"

	"avfs/internal/chip"
	"avfs/internal/sim"
	"avfs/internal/stateeq"
	"avfs/internal/workload"
)

// stagedConfig returns an Optimal configuration whose transitions take
// several ticks per phase, modelling regulator ramp and migration latency.
func stagedConfig(ticks int, unsafe bool) Config {
	cfg := DefaultConfig()
	cfg.TransitionTicks = ticks
	cfg.UnsafeOrder = unsafe
	return cfg
}

// churn submits a deterministic arrival pattern that repeatedly grows the
// utilized-PMD count — exactly the situation where the voltage must be
// raised before the placement grows.
func churn(m *sim.Machine) {
	names := []string{"milc", "namd", "lbm", "gcc", "CG", "povray", "mcf", "hmmer"}
	for i, n := range names {
		m.MustSubmit(workload.MustByName(n), 1)
		m.RunFor(1.0 + float64(i%3)*0.3)
	}
	m.RunFor(300)
}

func TestStagedTransitionsStaySafe(t *testing.T) {
	for _, ticks := range []int{1, 3, 10} {
		m := sim.New(chip.XGene3Spec())
		d := New(m, stagedConfig(ticks, false))
		d.Attach()
		churn(m)
		if n := len(m.Emergencies()); n != 0 {
			t.Fatalf("TransitionTicks=%d: %d emergencies with the correct protocol order", ticks, n)
		}
		if len(m.Finished()) != 8 {
			t.Fatalf("TransitionTicks=%d: %d finished, want 8", ticks, len(m.Finished()))
		}
	}
}

// TestUnsafeOrderCausesEmergencies is the protocol ablation: with the
// fail-safe ordering inverted (reconfigure before raising the voltage),
// growing the placement at the old, lower voltage must trip the voltage-
// emergency detector — demonstrating why the paper raises first.
func TestUnsafeOrderCausesEmergencies(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	d := New(m, stagedConfig(10, true))
	d.Attach()
	churn(m)
	if n := len(m.Emergencies()); n == 0 {
		t.Fatal("inverted protocol order produced no emergencies; the ablation lost its teeth")
	}
}

func TestTransitionInFlight(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	d := New(m, stagedConfig(5, false))
	d.Attach()
	m.MustSubmit(workload.MustByName("namd"), 1)
	m.Step() // enqueues the transition
	if !d.TransitionInFlight() {
		t.Fatal("transition must be in flight after an arrival")
	}
	m.RunFor(1)
	if d.TransitionInFlight() {
		t.Fatal("transition must complete within a second")
	}
}

func TestStagedTransitionSurvivesCompletions(t *testing.T) {
	// A process finishing while a transition is staged must not break the
	// queued reconfiguration.
	m := sim.New(chip.XGene2Spec())
	d := New(m, stagedConfig(8, false))
	d.Attach()
	// IS is the shortest program; EP is long. Tight arrival spacing makes
	// completions overlap queued transitions.
	m.MustSubmit(workload.MustByName("IS"), 2)
	m.RunFor(0.5)
	for i := 0; i < 4; i++ {
		m.MustSubmit(workload.MustByName("namd"), 1)
		m.RunFor(0.3)
	}
	m.RunFor(300)
	if len(m.Finished()) != 5 {
		t.Fatalf("%d finished, want 5", len(m.Finished()))
	}
	if n := len(m.Emergencies()); n != 0 {
		t.Fatalf("%d emergencies", n)
	}
}

func TestMemFreqOverride(t *testing.T) {
	m := sim.New(chip.XGene2Spec())
	cfg := DefaultConfig()
	cfg.MemFreqMHz = 1200 // half speed instead of the 0.9 GHz default
	d := New(m, cfg)
	d.Attach()
	p := m.MustSubmit(workload.MustByName("lbm"), 1)
	m.RunFor(2)
	if d.ClassOf(p) != MemoryIntensive {
		t.Fatal("lbm must classify memory-intensive")
	}
	for _, c := range p.Cores() {
		if f := m.Chip.CoreFreq(c); f != 1200 {
			t.Errorf("memory core at %v, want the 1200MHz override", f)
		}
	}
	if len(m.Emergencies()) != 0 {
		t.Error("override run must stay safe")
	}
}

func TestMemFreqDefaultPerChip(t *testing.T) {
	d2 := New(sim.New(chip.XGene2Spec()), DefaultConfig())
	if d2.memFreq() != 900 {
		t.Errorf("X-Gene 2 memory frequency %v, want 900", d2.memFreq())
	}
	d3 := New(sim.New(chip.XGene3Spec()), DefaultConfig())
	if d3.memFreq() != 1500 {
		t.Errorf("X-Gene 3 memory frequency %v, want 1500", d3.memFreq())
	}
}

// TestStagedRestoreMatchesContinuous: a snapshot taken on the tick a
// staged transition's last phase fired — the moment the phase countdown
// is still armed — restores into a daemon whose next transition lands on
// the same bits as the continuous run's.
func TestStagedRestoreMatchesContinuous(t *testing.T) {
	cfg := stagedConfig(3, false)
	cont := sim.New(chip.XGene3Spec())
	contD := New(cont, cfg)
	contD.Attach()
	cont.MustSubmit(workload.MustByName("namd"), 1)
	cont.Step()
	if !contD.TransitionInFlight() {
		t.Fatal("precondition: the arrival must stage a transition")
	}
	for contD.TransitionInFlight() {
		cont.Step()
	}
	ds, err := contD.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sim.RestoreMachine(chip.XGene3Spec(), cont.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	d2 := New(m2, cfg)
	d2.Attach()
	if err := d2.RestoreState(ds); err != nil {
		t.Fatal(err)
	}

	reconfigs := contD.Reconfigurations()
	for _, m := range []*sim.Machine{cont, m2} {
		m.MustSubmit(workload.MustByName("lbm"), 1)
		m.Step()
	}
	if !contD.TransitionInFlight() || !d2.TransitionInFlight() {
		t.Fatal("precondition: the second arrival must stage a transition on both runs")
	}
	cont.RunFor(1)
	m2.RunFor(1)
	if contD.Reconfigurations() == reconfigs {
		t.Fatal("precondition: the second transition must reconfigure")
	}
	if d := stateeq.Diff(stackState(t, cont, contD), stackState(t, m2, d2)); d != "" {
		t.Errorf("1 s after the next transition: %s", d)
	}
}
