package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfs/internal/telemetry"
)

func TestRunPreservesJobOrder(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	for _, width := range []int{1, 4, 16, 0} {
		got, err := Run(context.Background(), jobs, width, func(_ context.Context, j int) (int, error) {
			return j * j, nil
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("width %d: results[%d] = %d, want %d", width, i, r, i*i)
			}
		}
	}
}

func TestRunEmptyJobs(t *testing.T) {
	got, err := Run(context.Background(), nil, 4, func(_ context.Context, j int) (int, error) {
		return j, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty jobs: %v, %v", got, err)
	}
}

func TestRunWidthIsBounded(t *testing.T) {
	const width = 3
	var inFlight, peak atomic.Int64
	jobs := make([]int, 40)
	_, err := Run(context.Background(), jobs, width, func(_ context.Context, _ int) (int, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > width {
		t.Errorf("observed %d concurrent workers, want <= %d", p, width)
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	boom := func(i int) error { return fmt.Errorf("job %d failed", i) }
	got, err := Run(context.Background(), jobs, 4, func(_ context.Context, j int) (int, error) {
		if j == 2 || j == 5 {
			return 0, boom(j)
		}
		return j + 100, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	// Job 2 is dispatched before job 5, so even when both fail the
	// reported error must be the lowest-indexed one.
	if !strings.Contains(err.Error(), "job 2 failed") {
		t.Fatalf("unexpected error %v", err)
	}
	if got[0] != 100 {
		// Job 0 is dispatched before any failure can cancel the campaign.
		t.Errorf("results[0] = %d, want 100", got[0])
	}
}

func TestRunCapturesWorkerPanics(t *testing.T) {
	jobs := []int{0, 1, 2, 3}
	_, err := Run(context.Background(), jobs, 2, func(_ context.Context, j int) (int, error) {
		if j == 3 {
			panic("cell exploded")
		}
		return j, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Job != 3 || pe.Value != "cell exploded" {
		t.Errorf("panic error = job %d value %v", pe.Job, pe.Value)
	}
	if !strings.Contains(pe.Error(), "cell exploded") || len(pe.Stack) == 0 {
		t.Error("panic error must carry the message and the stack")
	}
}

func TestRunSerialWidthCapturesPanics(t *testing.T) {
	_, err := Run(context.Background(), []int{0}, 1, func(_ context.Context, _ int) (int, error) {
		panic("serial cell exploded")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError from serial path, got %v", err)
	}
}

func TestRunCancellationMidCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]int, 64)
	// The workers block until cancellation, so the trigger must fire on
	// the last worker the resolved width actually spawns.
	lastWorker := int64(EffectiveWidth(4, len(jobs)))
	var started atomic.Int64
	got, err := Run(ctx, jobs, 4, func(ctx context.Context, _ int) (int, error) {
		if started.Add(1) == lastWorker {
			cancel() // cancel while the pool is mid-flight
		}
		<-ctx.Done()
		return 7, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := started.Load(); n >= int64(len(jobs)) {
		t.Errorf("all %d jobs started despite cancellation", n)
	}
	if len(got) != len(jobs) {
		t.Errorf("partial results slice has len %d, want %d", len(got), len(jobs))
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Run(ctx, make([]int, 10), 2, func(_ context.Context, _ int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n > 2 {
		t.Errorf("%d jobs ran on a pre-cancelled context", n)
	}
}

func TestStatsCountsAndNilSafety(t *testing.T) {
	st := NewStats()
	jobs := make([]int, 30)
	_, err := RunStats(context.Background(), jobs, 4, st, func(_ context.Context, _ int) (int, error) {
		st.AddRuns(10)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Planned() != 30 || st.Completed() != 30 || st.InFlight() != 0 {
		t.Errorf("stats = %d planned / %d done / %d in flight",
			st.Planned(), st.Completed(), st.InFlight())
	}
	if st.Runs() != 300 {
		t.Errorf("runs = %d, want 300", st.Runs())
	}

	st.AddCached(1000)
	st.AddCached(60)
	if st.CachedCells() != 2 || st.CachedRuns() != 1060 {
		t.Errorf("cached = %d cells / %d runs, want 2/1060", st.CachedCells(), st.CachedRuns())
	}
	if st.Runs() != 300 {
		t.Error("cached cells must not count as simulated runs")
	}

	var nilStats *Stats
	nilStats.AddRuns(5)   // must not panic
	nilStats.AddCached(5) // must not panic
	if nilStats.Planned() != 0 || nilStats.Completed() != 0 || nilStats.InFlight() != 0 ||
		nilStats.Runs() != 0 || nilStats.CachedCells() != 0 || nilStats.CachedRuns() != 0 {
		t.Error("nil Stats accessors must return zero")
	}
	if _, err := RunStats(context.Background(), jobs, 2, nil, func(_ context.Context, _ int) (int, error) {
		return 0, nil
	}); err != nil {
		t.Fatalf("nil stats run: %v", err)
	}
}

func TestStatsInstrument(t *testing.T) {
	st := NewStats()
	reg := telemetry.NewRegistry()
	st.Instrument(reg)
	if _, err := RunStats(context.Background(), make([]int, 12), 3, st, func(_ context.Context, _ int) (int, error) {
		st.AddRuns(2)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	st.AddCached(40)
	for name, want := range map[string]float64{
		MetricCellsPlanned:   12,
		MetricCellsCompleted: 12,
		MetricCellsInFlight:  0,
		MetricSimRuns:        24,
		MetricCachedCells:    1,
		MetricCachedRuns:     40,
	} {
		got, ok := reg.Value(name)
		if !ok {
			t.Errorf("metric %s not registered", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestStartProgressPrintsAndStops(t *testing.T) {
	st := NewStats()
	st.plan(4)
	st.AddRuns(100)
	var buf syncBuffer
	stop := st.StartProgress(&buf, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	stop()
	stop() // idempotent
	if !strings.Contains(buf.String(), "0/4 cells done") {
		t.Errorf("progress output missing summary: %q", buf.String())
	}
}

// syncBuffer is a goroutine-safe strings.Builder for the progress test.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestEffectiveWidth(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, jobs, want int
	}{
		{0, 1000, max},         // no explicit cap: machine width
		{0, 2, min(2, max)},    // tiny campaign: no idle workers
		{1, 1000, 1},           // explicit serial request wins
		{max + 7, 1000, max},   // over-subscription clamps to the machine
		{3, 1000, min(3, max)}, // explicit cap below the machine holds
		{8, 3, min(3, max)},    // job count caps an explicit request
		{-4, 5, min(5, max)},   // negative behaves like "no cap"
		{0, 0, 1},              // degenerate: still a valid width
	}
	for _, c := range cases {
		if got := EffectiveWidth(c.requested, c.jobs); got != c.want {
			t.Errorf("EffectiveWidth(%d, %d) = %d, want %d", c.requested, c.jobs, got, c.want)
		}
	}
}

// TestRunTinyCampaignSpawnsNoIdleWorkers checks the adaptive width end to
// end: a 2-job campaign on any machine never has more than 2 workers in
// flight, however wide the request.
func TestRunTinyCampaignSpawnsNoIdleWorkers(t *testing.T) {
	var cur, peak atomic.Int64
	gate := make(chan struct{})
	jobs := []int{0, 1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Run(context.Background(), jobs, 64, func(context.Context, int) (int, error) {
			if c := cur.Add(1); c > peak.Load() {
				peak.Store(c)
			}
			<-gate
			cur.Add(-1)
			return 0, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	<-done
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d for a 2-job campaign, want <= 2", p)
	}
}

// withProcs raises GOMAXPROCS to at least n for the test, so
// EffectiveWidth does not clamp the width the test needs.
func withProcs(t testing.TB, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestRunCallerIsAWorker: two jobs that can only finish while both are in
// flight complete at width 2 with a single extra goroutine, so the
// calling goroutine runs one of them. A missing worker fails the test on
// a timeout instead of hanging it.
func TestRunCallerIsAWorker(t *testing.T) {
	withProcs(t, 2)
	base := runtime.NumGoroutine()
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var during atomic.Int64
	_, err := Run(context.Background(), []int{0, 1}, 2, func(_ context.Context, j int) (int, error) {
		close(started[j])
		select {
		case <-started[1-j]:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("job %d: the other job never started", j)
		}
		if j == 0 {
			during.Store(int64(runtime.NumGoroutine()))
		}
		return j, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// base counts the test goroutine, so one worker goroutine is all Run
	// may add.
	if n := during.Load(); n > int64(base)+1 {
		t.Errorf("%d goroutines while both jobs ran, want at most %d: the caller is not a worker", n, base+1)
	}
}

// TestRunLowestErrorAmongClaimedJobs: a higher-indexed job fails first,
// while a lower-indexed claimed job is still running; the lower one's
// later error is the one returned, jobs claimed before the failure keep
// their results, and the failure stops further claims.
func TestRunLowestErrorAmongClaimedJobs(t *testing.T) {
	withProcs(t, 2)
	failed5 := make(chan struct{})
	var ran [8]atomic.Bool
	got, err := Run(context.Background(), []int{0, 1, 2, 3, 4, 5, 6, 7}, 2, func(_ context.Context, j int) (int, error) {
		ran[j].Store(true)
		switch j {
		case 2:
			select {
			case <-failed5:
			case <-time.After(5 * time.Second):
				return 0, errors.New("job 5 never ran while job 2 was in flight")
			}
			return 0, errors.New("job 2 failed")
		case 5:
			defer close(failed5)
			return 0, errors.New("job 5 failed")
		}
		return j + 100, nil
	})
	if err == nil || err.Error() != "job 2 failed" {
		t.Fatalf("error = %v, want job 2's", err)
	}
	for _, j := range []int{0, 1, 3, 4} {
		if got[j] != j+100 {
			t.Errorf("results[%d] = %d, want %d", j, got[j], j+100)
		}
	}
	for _, j := range []int{6, 7} {
		if ran[j].Load() {
			t.Errorf("job %d was claimed after both workers had failed", j)
		}
	}
}

// TestRunCancellationStopsClaims: once the caller's context is cancelled
// each worker claims at most the one index it was already reaching for.
func TestRunCancellationStopsClaims(t *testing.T) {
	const width, trigger = 2, 10
	withProcs(t, width)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var maxStarted atomic.Int64
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	_, err := Run(ctx, jobs, width, func(_ context.Context, j int) (int, error) {
		for {
			m := maxStarted.Load()
			if int64(j) <= m || maxStarted.CompareAndSwap(m, int64(j)) {
				break
			}
		}
		if j == trigger {
			cancel()
		}
		return j, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if m := maxStarted.Load(); m > trigger+width {
		t.Errorf("job %d started after the cancellation at job %d (width %d)", m, trigger, width)
	}
}

// TestRunLeavesNoGoroutines: every worker goroutine has exited soon after
// Run returns, on success, on a job error and on a panic.
func TestRunLeavesNoGoroutines(t *testing.T) {
	withProcs(t, 4)
	base := runtime.NumGoroutine()
	jobs := make([]int, 64)
	for i := range jobs {
		jobs[i] = i
	}
	for _, fn := range []func(context.Context, int) (int, error){
		func(_ context.Context, j int) (int, error) { return j, nil },
		func(_ context.Context, j int) (int, error) {
			if j == 3 {
				return 0, errors.New("boom")
			}
			return j, nil
		},
		func(_ context.Context, j int) (int, error) {
			if j == 7 {
				panic("boom")
			}
			return j, nil
		},
	} {
		_, _ = Run(context.Background(), jobs, 4, fn)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run returned, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// fineCell is roughly 10 µs of CPU-bound work, the size of a Figure 3-5
// characterization cell served by the clean-level fast path.
func fineCell(_ context.Context, j int) (float64, error) {
	x := float64(j)
	for i := 0; i < 4000; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x, nil
}

// BenchmarkRunFineCells measures the fan-out overhead on campaigns of
// many tiny cells: width 2 should approach half the serial time on a
// machine with two free CPUs.
func BenchmarkRunFineCells(b *testing.B) {
	jobs := make([]int, 1000)
	for i := range jobs {
		jobs[i] = i
	}
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), jobs, width, fineCell); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
