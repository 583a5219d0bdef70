package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"avfs/internal/chip"
	"avfs/internal/experiments/runner"
	"avfs/internal/vmin"
	"avfs/internal/vmin/store"
)

// The correctness proof of the characterization store at campaign scale: a
// store-backed Figure 3 run — cold (computing + persisting), warm from the
// in-process tier, and warm from the on-disk tier in a fresh process-like
// store — must be deep-equal to the storeless campaign, with Stats
// attributing cells to simulation or cache accordingly.

func TestFigure3StoreMatchesUncached(t *testing.T) {
	const trials = 40
	ctx := context.Background()
	want, err := Figure3Context(ctx, Campaign{Workers: 4}, trials)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st := store.New(dir)
	coldStats := runner.NewStats()
	cold, err := Figure3Context(ctx, Campaign{Workers: 4, Stats: coldStats, Store: st}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Fatal("cold store-backed Figure3 diverges from the storeless campaign")
	}
	if coldStats.CachedCells() != 0 || coldStats.Runs() == 0 {
		t.Errorf("cold campaign stats: %d cached cells, %d runs — want 0 cached, >0 runs",
			coldStats.CachedCells(), coldStats.Runs())
	}

	warmStats := runner.NewStats()
	warm, err := Figure3Context(ctx, Campaign{Workers: 4, Stats: warmStats, Store: st}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Fatal("warm store-backed Figure3 diverges from the storeless campaign")
	}
	if warmStats.Runs() != 0 || warmStats.CachedCells() != warmStats.Completed() {
		t.Errorf("warm campaign stats: %d runs, %d/%d cells cached — want 0 runs, all cached",
			warmStats.Runs(), warmStats.CachedCells(), warmStats.Completed())
	}
	if warmStats.CachedRuns() != coldStats.Runs() {
		t.Errorf("cached runs %d != cold simulated runs %d: the saved-work accounting drifted",
			warmStats.CachedRuns(), coldStats.Runs())
	}

	// A fresh store over the same directory simulates a new process: every
	// cell must come back from disk, still deep-equal.
	diskStats := runner.NewStats()
	fresh := store.New(dir)
	disk, err := Figure3Context(ctx, Campaign{Workers: 4, Stats: diskStats, Store: fresh}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(disk, want) {
		t.Fatal("disk-served Figure3 diverges from the storeless campaign")
	}
	if diskStats.Runs() != 0 {
		t.Errorf("disk-warm campaign simulated %d runs, want 0", diskStats.Runs())
	}
	if fresh.DiskHits() == 0 {
		t.Error("fresh store over a populated directory served no disk hits")
	}
}

// Figure 3's all-core panels and Figure 5's 1-thread-per-core lines request
// identical (spec, class, core set, bench, trials) cells, so a store shared
// across the two campaigns memoizes across them.
func TestFigure5ReusesFigure3Cells(t *testing.T) {
	const trials = 30
	ctx := context.Background()
	want, err := Figure5Context(ctx, Campaign{Workers: 4}, trials)
	if err != nil {
		t.Fatal(err)
	}

	st := store.New("")
	if _, err := Figure3Context(ctx, Campaign{Workers: 4, Store: st}, trials); err != nil {
		t.Fatal(err)
	}
	stats := runner.NewStats()
	got, err := Figure5Context(ctx, Campaign{Workers: 4, Stats: stats, Store: st}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("store-backed Figure5 diverges from the storeless campaign")
	}
	if stats.CachedCells() == 0 {
		t.Error("Figure5 shared no cells with the Figure3-warmed store")
	}
}

// TestCharacterizeCacheBudget is the CI memoization gate: it runs the
// reduced Figure 3 campaign cold against an empty two-tier store, reruns
// it warm from the in-process tier and again disk-warm from a fresh store
// over the same directory, hard-fails if any rerun diverges or if the warm
// rerun is not >= 10x faster than the cold one, and records timings plus
// hit/miss counts in the JSON file named by AVFS_BENCH_CACHE_OUT (see
// scripts/check.sh, which writes BENCH_cache.json).
func TestCharacterizeCacheBudget(t *testing.T) {
	out := os.Getenv("AVFS_BENCH_CACHE_OUT")
	if out == "" {
		t.Skip("set AVFS_BENCH_CACHE_OUT to run the characterization-cache benchmark")
	}
	const trials = 200
	const workers = 4
	ctx := context.Background()
	dir := t.TempDir()
	st := store.New(dir)

	coldStats := runner.NewStats()
	begin := time.Now()
	cold, err := Figure3Context(ctx, Campaign{Workers: workers, Stats: coldStats, Store: st}, trials)
	if err != nil {
		t.Fatal(err)
	}
	coldSec := time.Since(begin).Seconds()

	warmStats := runner.NewStats()
	begin = time.Now()
	warm, err := Figure3Context(ctx, Campaign{Workers: workers, Stats: warmStats, Store: st}, trials)
	if err != nil {
		t.Fatal(err)
	}
	warmSec := time.Since(begin).Seconds()

	fresh := store.New(dir)
	begin = time.Now()
	disk, err := Figure3Context(ctx, Campaign{Workers: workers, Store: fresh}, trials)
	if err != nil {
		t.Fatal(err)
	}
	diskSec := time.Since(begin).Seconds()

	if !reflect.DeepEqual(warm, cold) || !reflect.DeepEqual(disk, cold) {
		t.Fatal("cache-served Figure3 rerun diverges from the cold run — memoization is broken")
	}
	if warmStats.Runs() != 0 {
		t.Fatalf("warm rerun simulated %d runs; every cell should have been cache-served", warmStats.Runs())
	}

	speedup := coldSec / warmSec
	diskSpeedup := coldSec / diskSec
	report := struct {
		Trials       int     `json:"trials"`
		Cells        int64   `json:"cells"`
		SimRuns      int64   `json:"sim_runs"`
		CachedRuns   int64   `json:"cached_runs_saved"`
		Workers      int     `json:"workers"`
		NumCPU       int     `json:"num_cpu"`
		ColdSec      float64 `json:"cold_sec"`
		WarmSec      float64 `json:"warm_sec"`
		DiskWarmSec  float64 `json:"disk_warm_sec"`
		WarmSpeedup  float64 `json:"warm_speedup"`
		DiskSpeedup  float64 `json:"disk_speedup"`
		StoreMisses  int64   `json:"store_misses"`
		MemoryHits   int64   `json:"store_memory_hits"`
		DiskHits     int64   `json:"store_disk_hits"`
		InflightWait int64   `json:"store_inflight_waits"`
	}{
		Trials:       trials,
		Cells:        coldStats.Completed(),
		SimRuns:      coldStats.Runs(),
		CachedRuns:   warmStats.CachedRuns(),
		Workers:      workers,
		NumCPU:       runtime.NumCPU(),
		ColdSec:      coldSec,
		WarmSec:      warmSec,
		DiskWarmSec:  diskSec,
		WarmSpeedup:  speedup,
		DiskSpeedup:  diskSpeedup,
		StoreMisses:  st.Misses(),
		MemoryHits:   st.Hits(),
		DiskHits:     fresh.DiskHits(),
		InflightWait: fresh.InflightWaits(),
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("figure3 trials=%d: cold %.3fs, warm %.4fs (%.0fx), disk-warm %.4fs (%.0fx); %d misses, %d memory hits, %d disk hits",
		trials, coldSec, warmSec, speedup, diskSec, diskSpeedup, report.StoreMisses, report.MemoryHits, report.DiskHits)

	if speedup < 10 {
		t.Errorf("warm-store rerun speedup %.1fx, want >= 10x", speedup)
	}
}

// fmtKey is the fmt-built characterization key the store used before
// KeyFor appended its fields directly; disk-mirrored datasets are named
// by these strings.
func fmtKey(ch *vmin.Characterizer, c *vmin.Config) string {
	safe, unsafe := ch.TrialCounts()
	var b strings.Builder
	fmt.Fprintf(&b, "%s|chip=%s/%d|nom=%d|floor=%d|fc=%d|cores=",
		vmin.ModelVersion, c.Spec.Name, c.Spec.Model,
		c.Spec.NominalMV, c.Spec.MinSafeMV, c.FreqClass)
	cores := append([]chip.CoreID(nil), c.Cores...)
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	for i, id := range cores {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteString("|bench=")
	if c.Bench != nil {
		fmt.Fprintf(&b, "%s/%d", c.Bench.Name, c.Bench.VminOffsetMV)
	}
	if c.PMDOffsets != nil {
		b.WriteString("|pmdoff=")
		for i, o := range c.PMDOffsets {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", o)
		}
	}
	fmt.Fprintf(&b, "|salt=%d|safe=%d|unsafe=%d", ch.Salt, safe, unsafe)
	return b.String()
}

// TestKeyForMatchesFmtKeys: the store's keys are byte-identical to the
// fmt-built ones for every Figure 3/4/5 cell, so datasets persisted
// under the old keys still resolve; reversed core sets, PMD offset
// overrides and a missing benchmark are covered too.
func TestKeyForMatchesFmtKeys(t *testing.T) {
	_, cells3, err := fig3Cells()
	if err != nil {
		t.Fatal(err)
	}
	_, cells5, err := fig5Cells()
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []*vmin.Config
	for _, c := range cells3 {
		cfgs = append(cfgs, c.cfg)
	}
	for _, c := range fig4Cells(chip.XGene2Spec()) {
		cfgs = append(cfgs, c.cfg)
	}
	for _, c := range cells5 {
		cfgs = append(cfgs, c.cfg)
	}
	if len(cfgs) != 975 {
		t.Fatalf("%d figure cells", len(cfgs))
	}
	edges := []*vmin.Config{}
	for _, c := range cfgs[:3] {
		rev := *c
		rev.Cores = append([]chip.CoreID(nil), c.Cores...)
		for i, j := 0, len(rev.Cores)-1; i < j; i, j = i+1, j-1 {
			rev.Cores[i], rev.Cores[j] = rev.Cores[j], rev.Cores[i]
		}
		offs := *c
		offs.PMDOffsets = vmin.SampleChipOffsets(c.Spec, 7)
		offs.PMDOffsets[0] = -13
		none := *c
		none.Bench = nil
		edges = append(edges, &rev, &offs, &none)
	}
	for _, ch := range []*vmin.Characterizer{{}, {SafeTrials: 40, UnsafeTrials: 40}, {Salt: -3, SafeTrials: 7}} {
		for _, c := range append(cfgs, edges...) {
			if got, want := store.KeyFor(ch, c).String(), fmtKey(ch, c); got != want {
				t.Fatalf("KeyFor = %q, fmt key %q", got, want)
			}
		}
	}
}
