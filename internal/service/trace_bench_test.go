package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/benchkit"
	"avfs/internal/service"
)

// traceBenchFleet builds a fleet with tracing on or off and one busy
// session stepped one tick at a time, so ns/op measures the
// exact per-tick path the span/SLO instrumentation rides on. Coalesced
// batches replay thousands of ticks in nanoseconds and would make any
// fixed per-chunk cost look enormous relative to work that no production
// deployment runs uncoalesced-free.
func traceBenchFleet(b testing.TB, noTrace bool) (*service.Fleet, string) {
	f := service.New(service.Config{ReapEvery: -1, NoTrace: noTrace})
	b.Cleanup(f.Close)
	s, err := f.Create(api.CreateSessionRequest{Policy: "optimal"})
	if err != nil {
		b.Fatal(err)
	}
	service.StepPerTick(b, f, s.ID)
	// Warm the session past its transient regime before timing: the
	// finished-process log and allocator heap grow over the first tens of
	// advances and drag per-op cost up with them, which would otherwise
	// make ns/op depend on b.N (the two variants land on different ramped
	// iteration counts and the comparison inherits the drift).
	for i := 0; i < 80; i++ {
		refillTrace(b, f, s.ID)
		if _, err := f.RunSync(context.Background(), s.ID, api.RunRequest{Seconds: benchSeconds}); err != nil {
			b.Fatal(err)
		}
	}
	return f, s.ID
}

// refillTrace submits a mix that drains comfortably inside one
// benchSeconds advance, so every timed iteration does the same work:
// no backlog accumulates across iterations, which would otherwise make
// ns/op depend on b.N and skew the traced-vs-untraced comparison.
func refillTrace(b testing.TB, f *service.Fleet, id string) {
	for _, w := range []struct {
		name    string
		threads int
	}{{"CG", 8}, {"EP", 4}} {
		if _, err := f.Submit(id, api.SubmitRequest{Benchmark: w.name, Threads: w.threads}); err != nil {
			b.Fatal(err)
		}
	}
}

// runSyncLoop advances the session benchSeconds of simulated time per
// iteration through the full RunSync path — pool admission, actor lock,
// chunked RunForContext — which is where the queue/cell/commit spans and
// both SLO trackers live. The refill happens off-timer each iteration so
// the machine carries load for most of the advance.
const benchSeconds = 30

func runSyncLoop(b *testing.B, f *service.Fleet, id string) {
	// A pointer-free ballast pins GC pacing: in this benchmark's toy heap
	// the retained span ring would otherwise shift collection cadence
	// between the variants and the comparison would measure allocator
	// pacing, not the serving path. Production heaps dwarf the ring.
	ballast := make([]byte, 64<<20)
	defer runtime.KeepAlive(ballast)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refillTrace(b, f, id)
		b.StartTimer()
		res, err := f.RunSync(ctx, id, api.RunRequest{Seconds: benchSeconds})
		if err != nil {
			b.Fatal(err)
		}
		if res.Ticks == 0 {
			b.Fatal("machine committed no ticks")
		}
	}
}

// BenchmarkRunSyncUntraced is the baseline: the full run path with the
// whole span/SLO plane compiled out by NoTrace.
func BenchmarkRunSyncUntraced(b *testing.B) {
	f, id := traceBenchFleet(b, true)
	runSyncLoop(b, f, id)
}

// BenchmarkRunSyncTraced is the same loop with spans, per-chunk commit
// tracing, lock histograms, and both SLO trackers live.
func BenchmarkRunSyncTraced(b *testing.B) {
	f, id := traceBenchFleet(b, false)
	runSyncLoop(b, f, id)
}

// runSyncSample advances the session runs times through RunSync,
// refilling it off the clock, and returns the cost in ns per run.
func runSyncSample(t testing.TB, f *service.Fleet, id string, runs int) float64 {
	ctx := context.Background()
	var took time.Duration
	for i := 0; i < runs; i++ {
		refillTrace(t, f, id)
		start := time.Now()
		res, err := f.RunSync(ctx, id, api.RunRequest{Seconds: benchSeconds})
		took += time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ticks == 0 {
			t.Fatal("machine committed no ticks")
		}
	}
	return float64(took.Nanoseconds()) / float64(runs)
}

// traceOverheadReport is the JSON summary scripts/check.sh records as
// BENCH_trace.json: per-side medians and the median per-pair overhead
// with its quartiles.
type traceOverheadReport struct {
	benchkit.Env
	UntracedNsPerRun float64 `json:"untraced_ns_per_run"`
	TracedNsPerRun   float64 `json:"traced_ns_per_run"`
	SimSecondsPerRun float64 `json:"sim_seconds_per_run"`
	OverheadFrac     float64 `json:"overhead_frac"`
	OverheadP25      float64 `json:"overhead_p25"`
	OverheadP75      float64 `json:"overhead_p75"`
	LimitFrac        float64 `json:"limit_frac"`
	Pairs            int     `json:"pairs"`
	Runs             int     `json:"runs_per_sample"`
}

// TestTraceOverheadBudget measures the traced-vs-untraced RunSync cost on
// an uncoalesced busy session in interleaved pairs (internal/benchkit)
// and enforces the <=5% budget on the median per-pair overhead. It only
// runs when AVFS_BENCH_TRACE_OUT names the JSON report path
// (scripts/check.sh sets it) — timing assertions do not belong in the
// default test run.
func TestTraceOverheadBudget(t *testing.T) {
	out := os.Getenv("AVFS_BENCH_TRACE_OUT")
	if out == "" {
		t.Skip("set AVFS_BENCH_TRACE_OUT=<file> to run the trace overhead benchmark")
	}
	const (
		limit = 0.05
		pairs = 31
		runs  = 50
	)
	// The ballast pins GC pacing, as in runSyncLoop.
	ballast := make([]byte, 64<<20)
	defer runtime.KeepAlive(ballast)
	base, baseID := traceBenchFleet(t, true)
	traced, tracedID := traceBenchFleet(t, false)
	c := benchkit.Pairs(pairs,
		func() float64 { return runSyncSample(t, base, baseID, runs) },
		func() float64 { return runSyncSample(t, traced, tracedID, runs) })
	r := traceOverheadReport{
		Env:              c.Env,
		UntracedNsPerRun: c.BaseMedian,
		TracedNsPerRun:   c.VariantMedian,
		SimSecondsPerRun: benchSeconds,
		LimitFrac:        limit,
		Pairs:            pairs,
		Runs:             runs,
	}
	r.OverheadFrac, r.OverheadP25, r.OverheadP75 = c.Overhead()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("trace overhead: %+.2f%% [%+.2f%%, %+.2f%%] over %d pairs (budget %.0f%%), report written to %s\n",
		100*r.OverheadFrac, 100*r.OverheadP25, 100*r.OverheadP75, pairs, 100*limit, out)
	if r.OverheadFrac > limit {
		t.Errorf("traced RunSync is %.2f%% slower in the median pair; budget is %.0f%%",
			100*r.OverheadFrac, 100*limit)
	}
}
