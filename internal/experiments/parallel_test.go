package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"avfs/internal/benchkit"
	"avfs/internal/chip"
	"avfs/internal/experiments/runner"
	"avfs/internal/wlgen"
)

// smallWorkload generates a short fixed-seed workload for the parallel
// evaluation tests.
func smallWorkload(t *testing.T) (*chip.Spec, *wlgen.Workload) {
	t.Helper()
	spec := chip.XGene2Spec()
	return spec, wlgen.Generate(spec, wlgen.Config{Duration: 300}, 11)
}

// The determinism proof of the parallel runner: a campaign's result must be
// deep-equal to the serial one for any worker width, because every cell
// seeds its own RNG from its configuration identity and results are
// collected in enumeration order (including float summation order).

func TestFigure3ParallelMatchesSerial(t *testing.T) {
	const trials = 40
	serial, err := Figure3Context(context.Background(), Campaign{Workers: 1}, trials)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure3Context(context.Background(), Campaign{Workers: 4}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel Figure3 result differs from serial")
	}
}

func TestFigure5ParallelMatchesSerial(t *testing.T) {
	const trials = 30
	serial, err := Figure5Context(context.Background(), Campaign{Workers: 1}, trials)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure5Context(context.Background(), Campaign{Workers: 4}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel Figure5 result differs from serial")
	}
}

func TestEvaluateAllParallelMatchesSerial(t *testing.T) {
	spec, wl := smallWorkload(t)
	serial, err := EvaluateAllContext(context.Background(), Campaign{Workers: 1}, spec, wl)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EvaluateAllContext(context.Background(), Campaign{Workers: 4}, spec, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range SystemConfigs() {
		s, p := serial.Results[cfg], parallel.Results[cfg]
		if s.TimeSec != p.TimeSec || s.EnergyJ != p.EnergyJ || s.Emergencies != p.Emergencies {
			t.Errorf("%v: parallel run differs from serial (%v/%v vs %v/%v)",
				cfg, s.TimeSec, s.EnergyJ, p.TimeSec, p.EnergyJ)
		}
	}
}

func TestCampaignCancellationMidFigure(t *testing.T) {
	// An already-expired context must abort the campaign at dispatch and
	// surface the deadline error. (Racing a timer against the campaign
	// itself stopped working once the clean-level fast path made even
	// paper-fidelity Figure 3 finish in milliseconds.)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := Figure3Context(ctx, Campaign{Workers: 4}, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := Figure3Context(ctx2, Campaign{Workers: 4}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestFigure3ParallelBudget is the CI speedup gate: it times the Figure 3
// campaign serially and with 4 workers in interleaved pairs
// (internal/benchkit), hard-fails if any run's result or work diverges
// from the first run's, whatever the widths, and records the median per-pair speedup and
// its quartiles in the JSON file named by AVFS_BENCH_EXPERIMENTS_OUT (see
// scripts/check.sh). When the resolved width is 1 (one usable CPU) the
// two runs are the same serial campaign and the report says the ratio is
// not meaningful. The >= 2x speedup floor is only enforced on machines
// with at least 4 CPUs.
func TestFigure3ParallelBudget(t *testing.T) {
	out := os.Getenv("AVFS_BENCH_EXPERIMENTS_OUT")
	if out == "" {
		t.Skip("set AVFS_BENCH_EXPERIMENTS_OUT to run the parallel-speedup benchmark")
	}
	const trials = 60
	const workers = 4
	const pairs = 11

	// Every run, serial or parallel, must reproduce the first run's
	// result and work.
	var ref *Fig3Result
	var refStats *runner.Stats
	timed := func(width int) func() float64 {
		return func() float64 {
			st := runner.NewStats()
			begin := time.Now()
			res, err := Figure3Context(context.Background(), Campaign{Workers: width, Stats: st}, trials)
			secs := time.Since(begin).Seconds()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case ref == nil:
				ref, refStats = &res, st
			case !reflect.DeepEqual(*ref, res):
				t.Fatalf("Figure3 result at width %d diverges from the first run's — determinism is broken", width)
			case st.Runs() != refStats.Runs() || st.Completed() != refStats.Completed():
				t.Fatalf("Figure3 at width %d did different work: %d cells / %d runs, first run %d cells / %d runs",
					width, st.Completed(), st.Runs(), refStats.Completed(), refStats.Runs())
			}
			return secs
		}
	}
	// The parallel run is the baseline, so the per-pair ratio is the
	// serial run's cost over it: the speedup.
	c := benchkit.Pairs(pairs, timed(workers), timed(1))

	effWorkers := runner.EffectiveWidth(workers, int(refStats.Completed()))
	report := struct {
		Trials     int   `json:"trials"`
		Cells      int64 `json:"cells"`
		SimRuns    int64 `json:"sim_runs"`
		Workers    int   `json:"workers"`
		EffWorkers int   `json:"effective_workers"`
		benchkit.Env
		Pairs         int     `json:"pairs"`
		SerialSec     float64 `json:"serial_sec_median"`
		ParallelSec   float64 `json:"parallel_sec_median"`
		Speedup       float64 `json:"speedup_median"`
		SpeedupP25    float64 `json:"speedup_p25"`
		SpeedupP75    float64 `json:"speedup_p75"`
		NotMeaningful bool    `json:"not_meaningful,omitempty"`
	}{
		Trials:        trials,
		Cells:         refStats.Completed(),
		SimRuns:       refStats.Runs(),
		Workers:       workers,
		EffWorkers:    effWorkers,
		Env:           c.Env,
		Pairs:         pairs,
		SerialSec:     c.VariantMedian,
		ParallelSec:   c.BaseMedian,
		Speedup:       c.Ratio,
		SpeedupP25:    c.RatioP25,
		SpeedupP75:    c.RatioP75,
		NotMeaningful: effWorkers == 1,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("figure3 x%d (effective %d) trials=%d, %d pairs: serial %.4fs, parallel %.4fs, speedup %.2fx [%.2f, %.2f] (%d cells, %d runs)",
		workers, effWorkers, trials, pairs, report.SerialSec, report.ParallelSec,
		report.Speedup, report.SpeedupP25, report.SpeedupP75, report.Cells, report.SimRuns)

	if runtime.NumCPU() >= workers && report.Speedup < 2 {
		t.Errorf("parallel speedup %.2fx at %d workers, want >= 2x", report.Speedup, workers)
	}
}
