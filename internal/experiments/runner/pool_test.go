package runner

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolHooksObserveWaitAndRun checks that installed hooks see one
// queue-wait and one run-duration observation per executed job, with
// plausible values.
func TestPoolHooksObserveWaitAndRun(t *testing.T) {
	p := NewPool(2, 8)
	defer p.Close()
	var waits, runs atomic.Int64
	var maxRun atomic.Int64
	p.SetHooks(&Hooks{
		QueueWait: func(d time.Duration) {
			if d < 0 {
				t.Errorf("negative queue wait %v", d)
			}
			waits.Add(1)
		},
		JobDone: func(d time.Duration) {
			runs.Add(1)
			for {
				old := maxRun.Load()
				if int64(d) <= old || maxRun.CompareAndSwap(old, int64(d)) {
					break
				}
			}
		},
	})
	const jobs = 6
	for i := 0; i < jobs; i++ {
		if err := p.Do(context.Background(), func(context.Context) error {
			time.Sleep(2 * time.Millisecond)
			return nil
		}); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if waits.Load() != jobs || runs.Load() != jobs {
		t.Errorf("hooks fired %d waits / %d runs, want %d each", waits.Load(), runs.Load(), jobs)
	}
	if time.Duration(maxRun.Load()) < time.Millisecond {
		t.Errorf("max observed run %v, want >= the job's sleep", time.Duration(maxRun.Load()))
	}
	// Removing hooks stops observation.
	p.SetHooks(nil)
	if err := p.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if waits.Load() != jobs {
		t.Error("hook fired after removal")
	}
}

// TestPoolHooksSkipAbandonedJobs checks that jobs cancelled before a
// worker picks them up produce no run-duration observation.
func TestPoolHooksSkipAbandonedJobs(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	var runs atomic.Int64
	p.SetHooks(&Hooks{JobDone: func(time.Duration) { runs.Add(1) }})

	block := make(chan struct{})
	first, err := p.Go(context.Background(), func(context.Context) error {
		<-block
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	abandoned, err := p.Go(ctx, func(context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	close(block)
	<-first
	if err := <-abandoned; err == nil {
		t.Error("abandoned job should report its context error")
	}
	if runs.Load() != 1 {
		t.Errorf("JobDone fired %d times, want 1 (abandoned job skipped)", runs.Load())
	}
}
