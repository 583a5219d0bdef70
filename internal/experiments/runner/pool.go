package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSaturated is returned by Pool.Do/Go when every worker is busy and the
// admission queue is full — the backpressure signal the HTTP service maps
// to 429 + Retry-After.
var ErrSaturated = errors.New("runner: pool saturated")

// ErrPoolClosed rejects submissions after Close.
var ErrPoolClosed = errors.New("runner: pool closed")

// Pool is the long-lived sibling of Run: a fixed set of workers fed by a
// bounded admission queue, for callers that submit work over time (the
// fleet service's per-session operations) instead of fanning out one batch.
// It shares the batch engine's panic capture (as *PanicError) and adds
// explicit saturation: a submission that finds the queue full fails fast
// with ErrSaturated rather than queueing unboundedly.
type Pool struct {
	jobs    chan poolJob
	hooks   atomic.Pointer[Hooks]
	wg      sync.WaitGroup // workers
	pending atomic.Int64   // admitted but not yet completed
	idle    chan struct{}  // signalled (best-effort) when pending hits 0

	mu     sync.Mutex
	closed bool
}

// Hooks observe the pool's scheduling behaviour: QueueWait fires when a
// worker picks a job up (how long it sat admitted-but-unstarted — the
// saturation signal), JobDone when the job's function returns (how long
// the worker was held). Either may be nil. Hooks run on worker
// goroutines and must be cheap and non-blocking.
type Hooks struct {
	QueueWait func(time.Duration)
	JobDone   func(time.Duration)
}

// SetHooks installs (or, with nil, removes) the observation hooks.
// Safe to call concurrently with running work.
func (p *Pool) SetHooks(h *Hooks) { p.hooks.Store(h) }

// poolJob is one admitted unit of work.
type poolJob struct {
	ctx      context.Context
	fn       func(context.Context) error
	done     chan error // buffered(1); receives exactly one result
	admitted time.Time
}

// NewPool starts a pool of width workers with a queue-deep admission
// buffer. width <= 0 means runtime.GOMAXPROCS(0); queue <= 0 means
// 4*width.
func NewPool(width, queue int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 4 * width
	}
	p := &Pool{
		jobs: make(chan poolJob, queue),
		idle: make(chan struct{}, 1),
	}
	p.wg.Add(width)
	for i := 0; i < width; i++ {
		go p.worker()
	}
	return p
}

// worker executes admitted jobs until the queue closes.
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		if err := j.ctx.Err(); err != nil {
			// The submitter abandoned the job before a worker picked it
			// up; don't spend a worker on it.
			p.finish(j, err)
			continue
		}
		if h := p.hooks.Load(); h != nil && h.QueueWait != nil && !j.admitted.IsZero() {
			h.QueueWait(time.Since(j.admitted))
		}
		started := time.Now()
		err := p.runOne(j)
		if h := p.hooks.Load(); h != nil && h.JobDone != nil {
			h.JobDone(time.Since(started))
		}
		p.finish(j, err)
	}
}

// runOne invokes one job with the batch engine's panic capture.
func (p *Pool) runOne(j poolJob) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Job: -1, Value: v, Stack: debug.Stack()}
		}
	}()
	return j.fn(j.ctx)
}

// finish delivers a job's result and retires it from the pending count.
func (p *Pool) finish(j poolJob, err error) {
	j.done <- err
	if p.pending.Add(-1) == 0 {
		select {
		case p.idle <- struct{}{}:
		default:
		}
	}
}

// Go admits fn for asynchronous execution: it returns a 1-buffered channel
// that will receive fn's result (or the captured panic) exactly once. If
// the admission queue is full it fails immediately with ErrSaturated; the
// caller owns the retry policy. fn always runs to completion once a worker
// picks it up — cancellation is delivered through ctx, which fn is
// expected to honour (e.g. Machine.RunForContext).
func (p *Pool) Go(ctx context.Context, fn func(context.Context) error) (<-chan error, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j := poolJob{ctx: ctx, fn: fn, done: make(chan error, 1), admitted: time.Now()}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	p.pending.Add(1)
	select {
	case p.jobs <- j:
		p.mu.Unlock()
		return j.done, nil
	default:
		p.pending.Add(-1)
		p.mu.Unlock()
		return nil, ErrSaturated
	}
}

// Do admits fn and waits for its result. If ctx ends while the job is
// queued or running, Do returns ctx's error immediately; the job itself
// still completes (observing the same cancelled ctx), preserving the
// single-writer discipline of whatever fn locks.
func (p *Pool) Do(ctx context.Context, fn func(context.Context) error) error {
	done, err := p.Go(ctx, fn)
	if err != nil {
		return err
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Pending returns the number of admitted jobs not yet completed.
func (p *Pool) Pending() int64 { return p.pending.Load() }

// Drain blocks until every admitted job has completed or ctx ends. It does
// not close the pool; new submissions remain possible unless the caller
// stopped them.
func (p *Pool) Drain(ctx context.Context) error {
	for {
		if p.pending.Load() == 0 {
			return nil
		}
		select {
		case <-p.idle:
			// Re-check: a submission may have raced the signal.
		case <-ctx.Done():
			return fmt.Errorf("runner: drain: %w (%d jobs still pending)", ctx.Err(), p.pending.Load())
		}
	}
}

// Close stops admission, waits for in-flight jobs to finish and releases
// the workers. Safe to call twice.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}
