package avfs

import (
	"testing"
)

// newMachine builds an idle machine of a model, failing the test on error.
func newMachine(t *testing.T, model Model) *Machine {
	t.Helper()
	m, err := NewMachineWithOptions(model)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// attachDaemon builds the daemon for m and starts it, failing the test on
// error.
func attachDaemon(t *testing.T, m *Machine, opts ...DaemonOption) *Daemon {
	t.Helper()
	d, err := NewDaemonWithOptions(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d.Attach()
	return d
}

// benchmark looks up a catalog program, failing the test on an unknown
// name.
func benchmark(t *testing.T, name string) *BenchmarkModel {
	t.Helper()
	b, err := BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickstartFlow exercises the README's quickstart through the public
// facade: machine, daemon, submit, run, observe.
func TestQuickstartFlow(t *testing.T) {
	m := newMachine(t, XGene3)
	attachDaemon(t, m)
	p, err := m.Submit(benchmark(t, "CG"), 8)
	if err != nil {
		t.Fatal(err)
	}
	m.RunFor(60)
	if p.State.String() == "pending" {
		t.Fatal("daemon must have placed the process")
	}
	if m.Meter.Energy() <= 0 {
		t.Error("energy must accumulate")
	}
	if len(m.Emergencies()) != 0 {
		t.Error("no emergencies expected")
	}
}

func TestSpecAccessors(t *testing.T) {
	if Spec(XGene2).Cores != 8 || Spec(XGene3).Cores != 32 {
		t.Error("chip specs wrong")
	}
	if len(Benchmarks()) != 41 {
		t.Errorf("catalog has %d programs, want 41 (35 pool + 6 PARSEC)", len(Benchmarks()))
	}
}

func TestFacadeAllocations(t *testing.T) {
	cl, err := ClusteredAllocation(XGene3, 4)
	if err != nil || len(cl) != 4 || cl[1] != 1 {
		t.Errorf("clustered allocation = %v, %v", cl, err)
	}
	sp, err := SpreadedAllocation(XGene3, 4)
	if err != nil || sp[1] != 2 {
		t.Errorf("spreaded allocation = %v, %v", sp, err)
	}
}

func TestFacadeVminSurface(t *testing.T) {
	spec := Spec(XGene3)
	if got := SafeVminEnvelope(spec, FullSpeed, 16); got != 830 {
		t.Errorf("envelope = %v, want 830 (Table II)", got)
	}
	if got := FreqClassOf(spec, 1500); got != HalfSpeed {
		t.Errorf("class of 1500MHz = %v", got)
	}
	if got := DroopClassOf(spec, 8); got != 2 {
		t.Errorf("droop class of 8 PMDs = %v, want 2", got)
	}
	fr := ReportedFrequencies(Spec(XGene2))
	if len(fr) != 3 {
		t.Errorf("X-Gene 2 reported frequencies = %v", fr)
	}
}

func TestFacadeCharacterizer(t *testing.T) {
	ch := &Characterizer{SafeTrials: 100, UnsafeTrials: 30}
	cores, _ := ClusteredAllocation(XGene3, 32)
	cz := ch.Characterize(&VminConfig{
		Spec:      Spec(XGene3),
		FreqClass: FullSpeed,
		Cores:     cores,
		Bench:     benchmark(t, "CG"),
	})
	if cz.SafeVmin != 830 {
		t.Errorf("CG 32T safe Vmin = %v, want 830 (Table II envelope setter)", cz.SafeVmin)
	}
	if cz.GuardbandMV() != 40 {
		t.Errorf("guardband = %v, want 40", cz.GuardbandMV())
	}
}

func TestFacadeWorkloadAndEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation in -short mode")
	}
	wl := GenerateWorkload(XGene2, WorkloadConfig{Duration: 300}, 1)
	if wl.TotalProcesses() == 0 {
		t.Fatal("empty workload")
	}
	res, err := Evaluate(XGene2, wl, Optimal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emergencies != 0 || res.EnergyJ <= 0 {
		t.Errorf("evaluation result: %+v", res)
	}
}

func TestBaselineFacade(t *testing.T) {
	m := newMachine(t, XGene2)
	AttachBaseline(m)
	m.MustSubmit(benchmark(t, "gcc"), 1)
	if err := m.RunUntilIdle(3600); err != nil {
		t.Fatal(err)
	}
	if m.Chip.Voltage() != Spec(XGene2).NominalMV {
		t.Error("baseline must keep nominal voltage")
	}
}
