// Package avfs is the public facade of the AVFS library: a full
// reproduction, on simulated X-Gene 2 / X-Gene 3 substrates, of the HPCA
// 2019 paper "Adaptive Voltage/Frequency Scaling and Core Allocation for
// Balanced Energy and Performance on Multicore CPUs" (Papadimitriou,
// Chatzidimitriou, Gizopoulos — University of Athens).
//
// The library has three layers:
//
//   - Substrates (chip, clock, power, droop, vmin, workload, sim, perfmon,
//     sysfs, sched): everything the paper's testbed provided in hardware.
//   - The contribution (daemon): the online monitoring daemon that
//     classifies processes by their L3C access rate, clusters
//     CPU-intensive threads, spreads memory-intensive threads at reduced
//     frequency, and programs the Table II safe Vmin with a fail-safe
//     raise-before-reconfigure protocol.
//   - Experiments: one entry point per paper table/figure (see DESIGN.md).
//
// This package re-exports the types downstream users need, so the whole
// system is usable through the single import "avfs".
//
// Quick start:
//
//	machine := avfs.NewMachine(avfs.XGene3)
//	s, err := avfs.NewStack(machine, avfs.Optimal, nil, nil) // the paper's daemon
//	if err != nil { ... }
//	bench, err := avfs.BenchmarkByName("CG")
//	if err != nil { ... } // errors.Is(err, avfs.ErrUnknownBenchmark)
//	p, _ := machine.Submit(bench, 8)
//	_ = machine.RunForContext(ctx, 60) // simulated seconds
//	fmt.Println(s.D.ClassOf(p), machine.Meter.Energy(), "J")
//
// A machine runs under one of the paper's four Table IV configurations
// through a Stack, the same wiring the campaign, the fleet sessions and
// avfsd use; s.D.Reconfigure retunes the daemon, and the machine's own
// fields and setters (Tick, SetMigrationPenalty, SetVminDrift) set the
// simulation. Failures are typed sentinels (errors.go) matched with
// errors.Is. Long runs take a context — Machine.RunForContext and
// Machine.RunUntilIdleContext stop between tick batches when the context
// ends, which is how the fleet service (internal/service, cmd/avfs-server)
// propagates request deadlines and drain cancellation into simulations.
package avfs

import (
	"context"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/experiments"
	"avfs/internal/sim"
	"avfs/internal/telemetry"
	"avfs/internal/wlgen"
	"avfs/internal/workload"
)

// Model identifies a supported chip.
type Model = chip.Model

// Supported chip models.
const (
	XGene2 = chip.XGene2
	XGene3 = chip.XGene3
)

// Core electrical and topology types.
type (
	// Millivolts is a supply voltage level.
	Millivolts = chip.Millivolts
	// MHz is a clock frequency.
	MHz = chip.MHz
	// CoreID identifies one core.
	CoreID = chip.CoreID
	// PMDID identifies one core pair (Processor MoDule).
	PMDID = chip.PMDID
	// ChipSpec is the static description of a chip.
	ChipSpec = chip.Spec
)

// Machine is the simulated server (see internal/sim).
type Machine = sim.Machine

// NewMachine creates an idle simulated server of the given model: nominal
// voltage, every PMD at maximum frequency, the default 10 ms tick.
func NewMachine(model Model) *Machine { return sim.New(Spec(model)) }

// Process is a running program instance on a Machine.
type Process = sim.Process

// Placement names the clustered/spreaded allocation strategies.
type Placement = sim.Placement

// Allocation strategies (Fig. 2 of the paper).
const (
	Clustered = sim.Clustered
	Spreaded  = sim.Spreaded
)

// Daemon is the paper's online monitoring daemon.
type Daemon = daemon.Daemon

// DaemonConfig tunes the daemon.
type DaemonConfig = daemon.Config

// Workload is a reproducible random server-workload schedule.
type Workload = wlgen.Workload

// WorkloadConfig tunes the workload generator.
type WorkloadConfig = wlgen.Config

// BenchmarkModel is the analytic model of one program.
type BenchmarkModel = workload.Benchmark

// Spec returns the chip specification for a model.
func Spec(m Model) *ChipSpec { return chip.SpecFor(m) }

// OptimalDaemonConfig returns the paper's "Optimal" configuration:
// placement, frequency and voltage adaptation.
func OptimalDaemonConfig() DaemonConfig { return daemon.DefaultConfig() }

// PlacementDaemonConfig returns the paper's "Placement" configuration:
// placement and frequency adaptation at nominal voltage.
func PlacementDaemonConfig() DaemonConfig { return daemon.PlacementOnlyConfig() }

// BenchmarkByName returns the model of a program by name (e.g. "CG",
// "milc"). Unknown names report an error wrapping ErrUnknownBenchmark.
func BenchmarkByName(name string) (*BenchmarkModel, error) {
	return workload.ByName(name)
}

// Benchmarks returns every modelled program.
func Benchmarks() []*BenchmarkModel { return workload.All() }

// GenerateWorkload builds a reproducible random server workload for a
// chip (Sec. VI-B of the paper). The zero WorkloadConfig generates the
// paper's 1-hour shape.
func GenerateWorkload(m Model, cfg WorkloadConfig, seed int64) *Workload {
	return wlgen.Generate(chip.SpecFor(m), cfg, seed)
}

// SystemConfig selects one of the paper's four evaluated configurations.
type SystemConfig = experiments.SystemConfig

// The four evaluated system configurations (Tables III/IV).
const (
	Baseline       = experiments.Baseline
	SafeVminConfig = experiments.SafeVmin
	PlacementOnly  = experiments.Placement
	Optimal        = experiments.Optimal
)

// Stack is a machine's control stack under one system configuration: the
// Linux-like baseline and the paper's daemon, attached with exactly the
// configuration's one enabled (see internal/experiments).
type Stack = experiments.Stack

// NewStack attaches the control stacks to a fresh machine and programs
// cfg; the machine and the daemon report to reg and tr when they are
// non-nil. Stack.Apply switches configuration later.
func NewStack(m *Machine, cfg SystemConfig, reg *TelemetryRegistry, tr *DecisionTracer) (*Stack, error) {
	return experiments.NewStack(m, cfg, 0, reg, tr)
}

// TelemetryRegistry collects the library's metrics (see internal/telemetry).
type TelemetryRegistry = telemetry.Registry

// DecisionTracer records structured daemon decision traces.
type DecisionTracer = telemetry.Tracer

// NewTelemetryRegistry creates an empty metric registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewDecisionTracer creates a decision tracer. Enable it and subscribe a
// sink (e.g. export.NewJSONL(w).Attach(tr)) to receive records.
func NewDecisionTracer() *DecisionTracer { return telemetry.NewTracer() }

// EvalResult is the outcome of replaying a workload under one
// configuration.
type EvalResult = experiments.EvalResult

// EvalSet is the four-configuration comparison (Table III/IV).
type EvalSet = experiments.EvalSet

// Evaluate replays a workload under one system configuration.
func Evaluate(m Model, wl *Workload, cfg SystemConfig) (EvalResult, error) {
	return experiments.Evaluate(chip.SpecFor(m), wl, cfg)
}

// EvaluateAll runs the full four-configuration comparison.
func EvaluateAll(m Model, wl *Workload) (*EvalSet, error) {
	return experiments.EvaluateAllContext(context.Background(), experiments.Campaign{}, chip.SpecFor(m), wl)
}
