// Package runner is the bounded worker-pool fan-out engine behind the
// experiment campaigns. The paper's methodology (Sec. III-A) spends 1000
// safe-point runs plus 60-run unsafe sweeps per (chip, frequency,
// allocation, benchmark) cell; every cell seeds its own RNG from the
// configuration identity, so cells are independent and a parallel campaign
// is bit-identical to the serial one. Run preserves job order in the
// result slice, captures worker panics as errors, and honours context
// cancellation, which is what makes the parallel/serial equivalence
// testable with a plain reflect.DeepEqual.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic that escaped a worker function, preserving the
// job index, the recovered value and the goroutine stack.
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

// Error describes the captured panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// EffectiveWidth resolves a requested worker-pool width against the
// workload and the machine: the result is min(jobs, GOMAXPROCS,
// requested), with requested <= 0 meaning "no explicit cap". Campaign
// cells are CPU-bound simulation, so a width beyond GOMAXPROCS only adds
// scheduler churn, and a width beyond the job count only starts workers
// that find nothing left to claim; tiny campaigns (a 4-variant ablation
// sweep on a 64-way host) therefore spin up 4 workers, not 64. The
// result is always at least 1. Pool deliberately does not use this
// resolution: its callers hold workers across blocking waits (a fleet
// run waits on its session's lock between chunks), so an explicit Pool
// width wider than the machine is meaningful there.
func EffectiveWidth(requested, jobs int) int {
	w := runtime.GOMAXPROCS(0)
	if requested > 0 && requested < w {
		w = requested
	}
	if jobs < w {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run fans fn out over jobs with at most width concurrent workers, the
// calling goroutine among them, and returns the results in job order:
// results[i] is fn's result for jobs[i], regardless of completion order.
// The width is resolved by EffectiveWidth (width <= 0 means
// runtime.GOMAXPROCS(0), and it is clamped to the job count and the
// machine); width 1 runs the jobs serially on the calling goroutine (the
// determinism baseline).
//
// A worker panic is recovered into a *PanicError and treated as that job's
// error. On the first error (or on ctx cancellation) no further jobs are
// claimed; in-flight jobs finish, their results are kept, and Run
// returns the error of the lowest-indexed failed job — deterministic no
// matter which worker hit it first. The partial result slice is always
// returned: entries for jobs that never ran hold zero values.
func Run[J, R any](ctx context.Context, jobs []J, width int, fn func(context.Context, J) (R, error)) ([]R, error) {
	return RunStats(ctx, jobs, width, nil, fn)
}

// RunStats is Run with an optional *Stats sink: every job is counted as
// planned up front, as in-flight while a worker holds it, and as completed
// when its result lands. A nil Stats is valid and cost-free.
func RunStats[J, R any](ctx context.Context, jobs []J, width int, st *Stats, fn func(context.Context, J) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	st.plan(len(jobs))
	width = EffectiveWidth(width, len(jobs))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The lowest-indexed error wins so the returned error does not depend
	// on goroutine scheduling.
	var (
		errMu    sync.Mutex
		firstErr error
		firstIdx int
	)
	// Workers claim job indices from one counter, so indices are handed
	// out in order without a dispatcher: every job below a claimed index
	// has already been claimed, and a failure or cancellation stops
	// further claims.
	var next atomic.Int64
	worker := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(jobs) {
				return
			}
			st.begin()
			r, err := safeCall(ctx, i, jobs[i], fn)
			if err == nil {
				results[i] = r
			}
			st.end()
			if err != nil {
				errMu.Lock()
				if firstErr == nil || i < firstIdx {
					firstErr, firstIdx = err, i
				}
				errMu.Unlock()
				cancel()
				return
			}
		}
	}

	// The calling goroutine is one of the width workers, so width 1 runs
	// serially with no goroutine at all.
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()

	if firstErr != nil {
		return results, firstErr
	}
	// Only a job error calls cancel() before the deferred one, so with no
	// error a non-nil ctx.Err() here can only come from the caller's
	// context.
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// safeCall invokes fn for one job, converting an escaped panic into a
// *PanicError so one bad cell cannot take the whole campaign process down.
func safeCall[J, R any](ctx context.Context, i int, job J, fn func(context.Context, J) (R, error)) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Job: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, job)
}
