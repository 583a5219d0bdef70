package experiments

import (
	"context"
	"runtime"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/experiments/runner"
	"avfs/internal/vmin/store"
	"avfs/internal/wlgen"
)

// campaignPass runs one paper campaign pass: Tables III/IV on both chips
// over a one-hour wlgen workload, then Figures 3-5 at the paper's trial
// counts against a characterization store fresh for the pass. It returns
// the simulated seconds of the eight replays.
func campaignPass(ctx context.Context, workers int, wlSeed int64) (float64, error) {
	cam := Campaign{Workers: workers, Store: store.New(""), Stats: runner.NewStats()}
	var simS float64
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		wl := wlgen.Generate(spec, wlgen.Config{Duration: 3600}, wlSeed)
		set, err := EvaluateAllContext(ctx, cam, spec, wl)
		if err != nil {
			return 0, err
		}
		for _, r := range set.Results {
			simS += r.TimeSec
		}
	}
	if _, err := Figure3Context(ctx, cam, 0); err != nil {
		return 0, err
	}
	if _, err := Figure4Context(ctx, cam, 0); err != nil {
		return 0, err
	}
	if _, err := Figure5Context(ctx, cam, 0); err != nil {
		return 0, err
	}
	return simS, nil
}

// BenchmarkCampaignPass measures one campaign pass two workers wide, the
// shape of perfbench's campaign workload; -benchmem prints its B/op and
// allocs/op, and gcs/op counts the collections a pass triggers.
func BenchmarkCampaignPass(b *testing.B) {
	ctx := context.Background()
	var simS float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		s, err := campaignPass(ctx, 2, 43)
		if err != nil {
			b.Fatal(err)
		}
		simS += s
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(simS/b.Elapsed().Seconds(), "sim_s/s")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}

// Allocation budget of one serial campaign pass. Before the campaign path
// reused its scratch a pass allocated 19.8 MB in 107k mallocs (go1.24.0);
// it now allocates 5.1 MB in 23k. The bounds leave headroom for runtime
// and toolchain drift and still fail on the old path.
const (
	campaignPassMaxBytes   = 7_000_000
	campaignPassMaxMallocs = 40_000
)

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// TestCampaignPassAllocationBudget gates the heap churn of the paper
// campaign: what a pass allocates should be its results, not scratch.
// It runs serially (Workers: 1), so no worker's pool refill after a GC
// blurs the count, and after one warm-up pass.
func TestCampaignPassAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full campaign passes")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so allocations do not measure the program")
	}
	ctx := context.Background()
	if _, err := campaignPass(ctx, 1, 43); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := campaignPass(ctx, 1, 43); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("one pass: %.2f MB in %d mallocs, %d GCs",
		float64(bytes)/1e6, mallocs, after.NumGC-before.NumGC)
	if bytes > campaignPassMaxBytes {
		t.Errorf("pass allocated %d bytes, budget %d", bytes, campaignPassMaxBytes)
	}
	if mallocs > campaignPassMaxMallocs {
		t.Errorf("pass made %d mallocs, budget %d", mallocs, campaignPassMaxMallocs)
	}
}
