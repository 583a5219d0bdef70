package avfs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"avfs/internal/daemon"
)

// newStack builds an idle machine of a model under one system
// configuration, failing the test on error.
func newStack(t *testing.T, model Model, cfg SystemConfig) *Stack {
	t.Helper()
	s, err := NewStack(NewMachine(model), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
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
	m := newStack(t, XGene3, Optimal).M
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
	m := newStack(t, XGene2, Baseline).M
	m.MustSubmit(benchmark(t, "gcc"), 1)
	if err := m.RunUntilIdle(3600); err != nil {
		t.Fatal(err)
	}
	if m.Chip.Voltage() != Spec(XGene2).NominalMV {
		t.Error("baseline must keep nominal voltage")
	}
}

// TestMachineSettings sets the simulation on the machine itself before its
// stack is built: the tick, the migration penalty, the drift, the event
// log, and the registry NewStack wires the machine into.
func TestMachineSettings(t *testing.T) {
	reg := NewTelemetryRegistry()
	m := NewMachine(XGene3)
	m.Tick = 0.005
	m.SetMigrationPenalty(0.001)
	m.SetVminDrift(10)
	m.EnableEventLog()
	if _, err := NewStack(m, Baseline, reg, nil); err != nil {
		t.Fatal(err)
	}
	m.RunFor(1)
	if m.Ticks() != 200 {
		t.Errorf("1 s at 5 ms tick = %d ticks, want 200", m.Ticks())
	}
	if v, ok := reg.Value("avfs_sim_seconds"); !ok || v != 1 {
		t.Errorf("telemetry not wired: avfs_sim_seconds = %v, %v", v, ok)
	}
}

// TestStackReconfigure retunes the Optimal stack's daemon field by field
// and checks it runs, reports and still undervolts safely.
func TestStackReconfigure(t *testing.T) {
	reg := NewTelemetryRegistry()
	s, err := NewStack(NewMachine(XGene3), Optimal, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := OptimalDaemonConfig()
	cfg.PollInterval = 0.2
	cfg.GuardMV = 10
	cfg.Hysteresis = 0.05
	cfg.TransitionTicks = 2
	if err := s.D.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if s.D.Cfg != cfg {
		t.Errorf("configuration not applied: %+v", s.D.Cfg)
	}
	bad := cfg
	bad.PollInterval = 0
	if err := s.D.Reconfigure(bad); err == nil {
		t.Error("a zero poll interval must be refused")
	}
	m := s.M
	if _, err := m.Submit(benchmark(t, "CG"), 8); err != nil {
		t.Fatal(err)
	}
	m.RunFor(10)
	if m.Chip.Voltage() >= Spec(XGene3).NominalMV {
		t.Errorf("retuned daemon never undervolted: %v mV", m.Chip.Voltage())
	}
	if len(m.Emergencies()) != 0 {
		t.Error("no emergencies expected")
	}
	if v, ok := reg.Value(daemon.MetricPolls); !ok || v <= 0 {
		t.Errorf("daemon telemetry not wired: %s = %v, %v", daemon.MetricPolls, v, ok)
	}
}

func TestRunForContextCancellation(t *testing.T) {
	m := NewMachine(XGene3)
	// One tick per commit, so the day-long run outlasts the deadline below.
	m.OnTickBounded(nil, m.Now)
	if _, err := m.Submit(benchmark(t, "CG"), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStack(m, Baseline, nil, nil); err != nil {
		t.Fatal(err)
	}

	// An already-dead context aborts before any time passes.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.RunForContext(dead, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunForContext(dead) = %v, want Canceled", err)
	}
	if m.Now() != 0 {
		t.Errorf("cancelled run advanced time to %v", m.Now())
	}

	// A deadline lands mid-run: the machine stops at a consistent commit
	// well short of the budget.
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	err := m.RunForContext(ctx, 86400)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunForContext = %v, want DeadlineExceeded", err)
	}
	if m.Now() <= 0 || m.Now() >= 86400 {
		t.Errorf("interrupted run at %v, want within (0, 86400)", m.Now())
	}
	// The machine remains serviceable after an abort.
	if err := m.RunForContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilIdleContext(t *testing.T) {
	m := newStack(t, XGene3, Baseline).M
	if _, err := m.Submit(benchmark(t, "blackscholes"), 4); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdleContext(context.Background(), 7200); err != nil {
		t.Fatalf("RunUntilIdleContext: %v", err)
	}
	if m.RunningCount()+m.PendingCount() != 0 {
		t.Error("machine not idle")
	}

	// Timeout with work still pending wraps ErrNotIdle.
	if _, err := m.Submit(benchmark(t, "CG"), 8); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdleContext(context.Background(), 1); !errors.Is(err, ErrNotIdle) {
		t.Errorf("short budget = %v, want ErrNotIdle", err)
	}
}

func TestBenchmarkByName(t *testing.T) {
	b, err := BenchmarkByName("CG")
	if err != nil || b == nil || b.Name != "CG" {
		t.Fatalf("BenchmarkByName(CG) = %v, %v", b, err)
	}
	_, err = BenchmarkByName("no-such-benchmark")
	if !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("unknown name = %v, want ErrUnknownBenchmark", err)
	}
}

// TestServiceSentinelReexports pins the facade's control-plane sentinels:
// wrapping preserves identity through errors.Is.
func TestServiceSentinelReexports(t *testing.T) {
	for _, sentinel := range []error{ErrSessionNotFound, ErrBusy, ErrFleetFull, ErrDraining} {
		if sentinel == nil {
			t.Fatal("nil sentinel re-export")
		}
		wrapped := fmt.Errorf("op failed: %w", sentinel)
		if !errors.Is(wrapped, sentinel) {
			t.Errorf("errors.Is broken for %v", sentinel)
		}
	}
}
