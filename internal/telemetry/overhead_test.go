package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"avfs/internal/benchkit"
	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/sim"
	"avfs/internal/telemetry"
	texport "avfs/internal/telemetry/export"
	"avfs/internal/workload"
)

// benchMachine builds a daemon-attached machine, optionally with the full
// telemetry plane (event bus, registry, decision tracer with an attached
// JSONL-style subscriber disabled — the steady-state production setup).
func benchMachine(instrumented bool) *sim.Machine {
	spec := chip.XGene3Spec()
	m := sim.New(spec)
	d := daemon.New(m, daemon.DefaultConfig())
	if instrumented {
		m.EnableEventLog()
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer()
		telemetry.WireMachine(m, reg, tr)
		d.Instrument(reg, tr)
	}
	d.Attach()
	refill(m)
	m.RunFor(1) // settle past the initial placement burst
	return m
}

// refill keeps the machine busy with the benchmark's standard mixed load.
func refill(m *sim.Machine) {
	for _, w := range []struct {
		name    string
		threads int
	}{{"CG", 8}, {"LU", 4}, {"namd", 1}, {"lbm", 1}} {
		if _, err := m.Submit(workload.MustByName(w.name), w.threads); err != nil {
			panic(err)
		}
	}
}

func stepLoop(b *testing.B, m *sim.Machine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.RunningCount()+m.PendingCount() == 0 {
			b.StopTimer()
			refill(m)
			b.StartTimer()
		}
		m.Step()
	}
}

// BenchmarkDaemonStepUninstrumented is the baseline: daemon-attached
// machine stepping with no telemetry at all.
func BenchmarkDaemonStepUninstrumented(b *testing.B) {
	stepLoop(b, benchMachine(false))
}

// BenchmarkDaemonStepInstrumented is the same loop with the registry,
// event counters, histograms and (inactive) decision tracer wired in.
func BenchmarkDaemonStepInstrumented(b *testing.B) {
	stepLoop(b, benchMachine(true))
}

// stepSample times steps daemon steps of m, refilling it off the clock,
// and returns the cost in ns per step.
func stepSample(m *sim.Machine, steps int) float64 {
	var paused time.Duration
	start := time.Now()
	for i := 0; i < steps; i++ {
		if m.RunningCount()+m.PendingCount() == 0 {
			t0 := time.Now()
			refill(m)
			paused += time.Since(t0)
		}
		m.Step()
	}
	return float64((time.Since(start) - paused).Nanoseconds()) / float64(steps)
}

// overheadReport is the JSON summary scripts/check.sh records as
// BENCH_telemetry.json: per-side medians and the median per-pair overhead
// with its quartiles.
type overheadReport struct {
	benchkit.Env
	UninstrumentedNsPerStep float64 `json:"uninstrumented_ns_per_step"`
	InstrumentedNsPerStep   float64 `json:"instrumented_ns_per_step"`
	OverheadFrac            float64 `json:"overhead_frac"`
	OverheadP25             float64 `json:"overhead_p25"`
	OverheadP75             float64 `json:"overhead_p75"`
	LimitFrac               float64 `json:"limit_frac"`
	Pairs                   int     `json:"pairs"`
	Steps                   int     `json:"steps_per_sample"`
}

// TestTelemetryOverheadBudget measures the instrumented-vs-uninstrumented
// daemon-step cost in interleaved pairs (internal/benchkit) and enforces
// the <=5% overhead budget on the median per-pair overhead. It only runs
// when AVFS_BENCH_OUT names the JSON report path (the check script sets
// it), because timing assertions do not belong in the default test run.
func TestTelemetryOverheadBudget(t *testing.T) {
	out := os.Getenv("AVFS_BENCH_OUT")
	if out == "" {
		t.Skip("set AVFS_BENCH_OUT=<file> to run the overhead benchmark")
	}
	const (
		limit = 0.05
		pairs = 31
		steps = 300_000
	)
	base, inst := benchMachine(false), benchMachine(true)
	c := benchkit.Pairs(pairs,
		func() float64 { return stepSample(base, steps) },
		func() float64 { return stepSample(inst, steps) })
	r := overheadReport{
		Env:                     c.Env,
		UninstrumentedNsPerStep: c.BaseMedian,
		InstrumentedNsPerStep:   c.VariantMedian,
		LimitFrac:               limit,
		Pairs:                   pairs,
		Steps:                   steps,
	}
	r.OverheadFrac, r.OverheadP25, r.OverheadP75 = c.Overhead()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("telemetry overhead: %+.2f%% [%+.2f%%, %+.2f%%] over %d pairs (budget %.0f%%), report written to %s\n",
		100*r.OverheadFrac, 100*r.OverheadP25, 100*r.OverheadP75, pairs, 100*limit, out)
	if r.OverheadFrac > limit {
		t.Errorf("instrumented daemon step is %.2f%% slower in the median pair; budget is %.0f%%",
			100*r.OverheadFrac, 100*limit)
	}
}

// TestPrometheusSnapshotOfLiveMachine ties the layers together: a machine
// run under the instrumented daemon must export a snapshot that passes the
// format check and contains the core gauges.
func TestPrometheusSnapshotOfLiveMachine(t *testing.T) {
	m2 := sim.New(chip.XGene3Spec())
	reg := telemetry.NewRegistry()
	telemetry.WireMachine(m2, reg, nil)
	d := daemon.New(m2, daemon.DefaultConfig())
	d.Instrument(reg, nil)
	d.Attach()
	refill(m2)
	m2.RunFor(10)

	var buf bytes.Buffer
	if err := texport.Prometheus(&buf, reg); err != nil {
		t.Fatalf("export: %v", err)
	}
	ms, err := texport.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("live export does not parse: %v", err)
	}
	for _, name := range []string{
		telemetry.MetricVoltageMV,
		telemetry.MetricGuardMarginMV,
		daemon.MetricPolls,
		daemon.MetricReconfigLatency + "_count",
	} {
		if _, ok := texport.Find(ms, name, nil); !ok {
			t.Errorf("live export missing %s", name)
		}
	}
}
