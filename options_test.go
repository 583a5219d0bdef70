package avfs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestNewMachineWithOptions(t *testing.T) {
	reg := NewTelemetryRegistry()
	m, err := NewMachineWithOptions(XGene3,
		WithTick(0.005),
		WithMigrationPenalty(0.001),
		WithVminDrift(10),
		WithEventLog(),
		WithMachineTelemetry(reg, nil),
	)
	if err != nil {
		t.Fatalf("NewMachineWithOptions: %v", err)
	}
	if m.Tick != 0.005 {
		t.Errorf("Tick = %v, want 0.005", m.Tick)
	}
	m.RunFor(1)
	if m.Ticks() != 200 {
		t.Errorf("1 s at 5 ms tick = %d ticks, want 200", m.Ticks())
	}
	if v, ok := reg.Value("avfs_sim_seconds"); !ok || v != 1 {
		t.Errorf("telemetry not wired: avfs_sim_seconds = %v, %v", v, ok)
	}
}

func TestMachineOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"zero tick", WithTick(0)},
		{"negative tick", WithTick(-0.01)},
		{"NaN tick", WithTick(math.NaN())},
		{"infinite tick", WithTick(math.Inf(1))},
		{"tick above one second", WithTick(1.001)},
		{"huge tick", WithTick(1e308)},
		{"negative migration penalty", WithMigrationPenalty(-1)},
		{"negative drift", WithVminDrift(-5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewMachineWithOptions(XGene3, tc.opt); !errors.Is(err, ErrInvalidOption) {
				t.Errorf("err = %v, want ErrInvalidOption", err)
			}
		})
	}
	if _, err := NewMachineWithOptions(XGene3, WithTick(1)); err != nil {
		t.Errorf("the largest tick, 1 s: %v", err)
	}
}

func TestNewDaemonWithOptions(t *testing.T) {
	m, err := NewMachineWithOptions(XGene3)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTelemetryRegistry()
	d, err := NewDaemonWithOptions(m,
		WithPollInterval(0.2),
		WithGuardMV(10),
		WithHysteresis(0.05),
		WithTransitionTicks(2),
		WithDaemonTelemetry(reg, nil),
	)
	if err != nil {
		t.Fatalf("NewDaemonWithOptions: %v", err)
	}
	if d.Cfg.PollInterval != 0.2 || d.Cfg.GuardMV != 10 || d.Cfg.TransitionTicks != 2 {
		t.Errorf("options not applied: %+v", d.Cfg)
	}
	d.Attach()
	if _, err := m.Submit(benchmark(t, "CG"), 8); err != nil {
		t.Fatal(err)
	}
	m.RunFor(10)
	if m.Chip.Voltage() >= Spec(XGene3).NominalMV {
		t.Errorf("daemon under options never undervolted: %v mV", m.Chip.Voltage())
	}
	if len(m.Emergencies()) != 0 {
		t.Error("no emergencies expected")
	}
}

func TestDaemonOptionValidation(t *testing.T) {
	m, _ := NewMachineWithOptions(XGene3)
	cases := []struct {
		name string
		opt  DaemonOption
	}{
		{"zero poll", WithPollInterval(0)},
		{"negative guard", WithGuardMV(-1)},
		{"hysteresis out of range", WithHysteresis(1)},
		{"negative transition ticks", WithTransitionTicks(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewDaemonWithOptions(m, tc.opt); !errors.Is(err, ErrInvalidOption) {
				t.Errorf("err = %v, want ErrInvalidOption", err)
			}
		})
	}
}

func TestRunForContextCancellation(t *testing.T) {
	m, err := NewMachineWithOptions(XGene3)
	if err != nil {
		t.Fatal(err)
	}
	// One tick per commit, so the day-long run outlasts the deadline below.
	m.OnTickBounded(nil, m.Now)
	if _, err := m.Submit(benchmark(t, "CG"), 8); err != nil {
		t.Fatal(err)
	}
	AttachBaseline(m)

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
	err = m.RunForContext(ctx, 86400)
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
	m, err := NewMachineWithOptions(XGene3)
	if err != nil {
		t.Fatal(err)
	}
	AttachBaseline(m)
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
