package sim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"avfs/internal/benchkit"
	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/sim"
	"avfs/internal/workload"
)

// busyMachine builds a machine carrying the benchmark's standard mixed
// load with a static placement (no daemon, no hooks) — the raw hot path.
func busyMachine() *sim.Machine {
	m := sim.New(chip.XGene3Spec())
	fillBusy(m)
	m.RunFor(1) // converge the contention fixed point
	return m
}

// fillBusy submits and places the standard mix on fixed cores.
func fillBusy(m *sim.Machine) {
	place := func(name string, threads int, cores ...chip.CoreID) {
		p, err := m.Submit(workload.MustByName(name), threads)
		if err != nil {
			panic(err)
		}
		if err := m.Place(p, cores); err != nil {
			panic(err)
		}
	}
	place("CG", 8, 0, 1, 2, 3, 4, 5, 6, 7)
	place("LU", 4, 8, 9, 10, 11)
	place("namd", 1, 12)
	place("lbm", 1, 13)
}

// BenchmarkSimSteadyState is the serial hot path: one exact Step per
// iteration on a busy steady machine. The CI gate requires 0 allocs/op.
func BenchmarkSimSteadyState(b *testing.B) {
	m := busyMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.RunningCount() == 0 {
			b.StopTimer()
			fillBusy(m)
			m.RunFor(1)
			b.StartTimer()
		}
		m.Step()
	}
}

// BenchmarkSimSteadyStateCoalesced commits the same ticks through the
// coalescing engine; ns/op is still per simulated tick, so the ratio to
// BenchmarkSimSteadyState is the coalescing speedup.
func BenchmarkSimSteadyStateCoalesced(b *testing.B) {
	m := busyMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for ticks := 0; ticks < b.N; {
		if m.RunningCount() == 0 {
			b.StopTimer()
			fillBusy(m)
			m.RunFor(1)
			b.StartTimer()
		}
		ticks += m.Advance()
	}
}

// BenchmarkSimDaemonLoop is the production shape: the Optimal daemon
// attached, its poll boundary bounding every batch. ns/op is per tick.
func BenchmarkSimDaemonLoop(b *testing.B) {
	m := sim.New(chip.XGene3Spec())
	d := daemon.New(m, daemon.DefaultConfig())
	d.Attach()
	refillDaemon(m)
	m.RunFor(1)
	b.ReportAllocs()
	b.ResetTimer()
	for ticks := 0; ticks < b.N; {
		if m.RunningCount()+m.PendingCount() == 0 {
			b.StopTimer()
			refillDaemon(m)
			b.StartTimer()
		}
		ticks += m.Advance()
	}
}

// refillDaemon submits the standard mix for the daemon to place.
func refillDaemon(m *sim.Machine) {
	for _, w := range []struct {
		name    string
		threads int
	}{{"CG", 8}, {"LU", 4}, {"namd", 1}, {"lbm", 1}} {
		if _, err := m.Submit(workload.MustByName(w.name), w.threads); err != nil {
			panic(err)
		}
	}
}

// simBenchReport is the JSON summary scripts/check.sh records as
// BENCH_sim.json.
type simBenchReport struct {
	SerialNsPerTick    float64 `json:"serial_ns_per_tick"`
	SerialAllocsPerOp  int64   `json:"serial_allocs_per_op"`
	SerialTicksPerSec  float64 `json:"serial_ticks_per_sec"`
	CoalescedNsPerTick float64 `json:"coalesced_ns_per_tick"`
	CoalescedTicksSec  float64 `json:"coalesced_ticks_per_sec"`
	DaemonNsPerTick    float64 `json:"daemon_ns_per_tick"`
	DaemonTicksPerSec  float64 `json:"daemon_ticks_per_sec"`
	Speedup            float64 `json:"coalescing_speedup"`
	SpeedupFloor       float64 `json:"speedup_floor"`
	benchkit.Env
}

// TestSimSteadyStateBudget is the CI perf gate: the steady-state Step path
// must not allocate, and the coalescing engine must commit ticks at least
// 3x faster than serial stepping. It only runs when AVFS_BENCH_SIM_OUT
// names the JSON report path (scripts/check.sh sets it) — timing
// assertions do not belong in the default test run.
func TestSimSteadyStateBudget(t *testing.T) {
	out := os.Getenv("AVFS_BENCH_SIM_OUT")
	if out == "" {
		t.Skip("set AVFS_BENCH_SIM_OUT=<file> to run the simulator hot-path benchmark")
	}
	const floor = 3.0
	best := simBenchReport{Speedup: 0, SpeedupFloor: floor, SerialAllocsPerOp: -1}
	// Timing noise dominates a single comparison; take the best of a few
	// rounds (the allocation count is deterministic — any round gates it).
	for round := 0; round < 3; round++ {
		serial := testing.Benchmark(BenchmarkSimSteadyState)
		coalesced := testing.Benchmark(BenchmarkSimSteadyStateCoalesced)
		dmn := testing.Benchmark(BenchmarkSimDaemonLoop)
		r := simBenchReport{
			SerialNsPerTick:    float64(serial.NsPerOp()),
			SerialAllocsPerOp:  serial.AllocsPerOp(),
			CoalescedNsPerTick: float64(coalesced.NsPerOp()),
			DaemonNsPerTick:    float64(dmn.NsPerOp()),
			SpeedupFloor:       floor,
		}
		r.SerialTicksPerSec = 1e9 / r.SerialNsPerTick
		r.CoalescedTicksSec = 1e9 / r.CoalescedNsPerTick
		r.DaemonTicksPerSec = 1e9 / r.DaemonNsPerTick
		r.Speedup = r.SerialNsPerTick / r.CoalescedNsPerTick
		t.Logf("round %d: serial %.0fns/tick (%d allocs), coalesced %.1fns/tick, daemon %.0fns/tick, speedup %.1fx",
			round, r.SerialNsPerTick, r.SerialAllocsPerOp, r.CoalescedNsPerTick, r.DaemonNsPerTick, r.Speedup)
		if r.SerialAllocsPerOp > 0 {
			t.Fatalf("steady-state Step allocates %d objects/op, want 0", r.SerialAllocsPerOp)
		}
		if r.Speedup > best.Speedup {
			best = r
		}
		if best.Speedup >= floor {
			break
		}
	}
	best.Env = benchkit.CurrentEnv()
	data, err := json.MarshalIndent(best, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("sim hot path: %.2f Mticks/s serial, %.2f Mticks/s coalesced (%.1fx, floor %.0fx), report written to %s\n",
		best.SerialTicksPerSec/1e6, best.CoalescedTicksSec/1e6, best.Speedup, floor, out)
	if best.Speedup < floor {
		t.Errorf("coalescing speedup %.2fx, want >= %.0fx", best.Speedup, floor)
	}
}
