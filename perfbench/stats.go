package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"avfs/internal/telemetry/export"
)

// Request classes. "write" is every state change that does not advance
// simulated time: create, submit, policy, snapshot, fork and delete.
const (
	classRead    = "read"
	classWrite   = "write"
	classRun     = "run"
	classWhatIf  = "whatif"
	classMigrate = "migrate"
)

// tailSamples is the sample count a class needs before its p99 is
// reported; below it the tail is a handful of points and only p50 is given.
const tailSamples = 1000

// warmup is the untimed stretch of load the HTTP workloads run before
// measuring, so the measured window starts with warm connections, a grown
// heap and filled simulator caches. Its ops count toward correctness.
const warmup = time.Second

// setupRepeats is how many times a run builds its system under test;
// setup_s is their median and the last build is the one measured.
const setupRepeats = 21

// recorder accumulates one client goroutine's observations; the
// goroutines' recorders merge after the window.
type recorder struct {
	lat       map[string][]float64 // successful request latency (ms) by class
	ops       []float64            // workload-op latency (ms)
	attempted int64
	failed    int64
	simS      float64 // simulated seconds committed
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

// observe accounts one request. A conflict is the server's documented
// "retry shortly" answer, which the tenant retries: only a conflict that
// outlives its retries counts as failed.
func (r *recorder) observe(class string, d time.Duration, err error) {
	r.attempted++
	switch {
	case err == nil:
		r.lat[class] = append(r.lat[class], ms(d))
	case !isConflict(err):
		r.failed++
	}
}

// merge folds another client's observations into r.
func (r *recorder) merge(o *recorder) {
	for c, xs := range o.lat {
		r.lat[c] = append(r.lat[c], xs...)
	}
	r.ops = append(r.ops, o.ops...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.simS += o.simS
}

// classMetrics sets the per-class latency metrics: p50 for every class,
// p99 once the class reached tailSamples, and the failed-op ratio.
func (r *recorder) classMetrics(m map[string]float64) {
	for _, c := range []string{classRead, classWrite, classRun, classWhatIf} {
		xs := r.lat[c]
		m[c+"_p50_ms"] = quantile(xs, 0.5)
		if len(xs) >= tailSamples {
			m[c+"_p99_ms"] = quantile(xs, 0.99)
		}
	}
	m["migrate_p50_ms"] = quantile(r.lat[classMigrate], 0.5)
	m["failed_ratio"] = ratio(float64(r.failed), float64(r.attempted))
}

// endToEnd sets the end-to-end metrics of a measured window from its
// set-up times and the live heap set-up left.
func (r *recorder) endToEnd(m map[string]float64, setup []float64, heapMB float64, elapsed time.Duration) {
	m["setup_s"] = quantile(setup, 0.5)
	m["setup_heap_mb"] = heapMB
	m["ops_per_s"] = float64(len(r.ops)) / elapsed.Seconds()
	m["op_mean_ms"] = mean(r.ops)
	m["sim_s_per_host_s"] = r.simS / elapsed.Seconds()
}

// overhead is the throughput share the traced half lost against the
// untraced half of the same run.
func overhead(base *recorder, baseElapsed time.Duration, traced *recorder, tracedElapsed time.Duration) float64 {
	b := float64(len(base.ops)) / baseElapsed.Seconds()
	t := float64(len(traced.ops)) / tracedElapsed.Seconds()
	return 1 - ratio(t, b)
}

// setUp builds the system under test setupRepeats times, closing all but
// the last build, and returns every build's duration in seconds.
func setUp[T any](build func() (T, error), closeFn func(T)) ([]float64, T, error) {
	var times []float64
	var v T
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			closeFn(v)
		}
		start := time.Now()
		var err error
		if v, err = build(); err != nil {
			var zero T
			return nil, zero, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, v, nil
}

// liveHeapMB collects garbage and returns the heap still in use. Right
// after set-up it is the footprint of the idle system under test: fixed
// work, unlike the resident set under load, which grows with the work a
// window gets done (the simulator keeps every finished process), so a
// faster program would read as a bigger one.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics, 0 for no samples. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// mean is the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssEvery is the resident-set sampling period of a measured window.
const rssEvery = 50 * time.Millisecond

// sampleRSS runs fn and samples the process's resident set size in MB
// every rssEvery meanwhile, plus once at the end. The samples' median is
// the window's footprint: unlike the high-water mark, it does not hinge on
// where one garbage collection happened to fall.
func sampleRSS(fn func()) ([]float64, error) {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var xs []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- xs
				return
			case <-tick.C:
				if mb, err := rssMB(); err == nil {
					xs = append(xs, mb)
				}
			}
		}
	}()
	fn()
	close(stop)
	xs := <-done
	mb, err := rssMB()
	if err != nil {
		return nil, err
	}
	return append(xs, mb), nil
}

// rssMB reads the process's current resident set size.
func rssMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, errors.New("resident set: short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// scrape fetches a Prometheus text endpoint and sums every sample by
// metric name across label sets.
func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	parsed, err := export.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", url, err)
	}
	return sumByName(parsed), nil
}

// sumByName sums parsed samples by metric name.
func sumByName(parsed []export.ParsedMetric) map[string]float64 {
	out := make(map[string]float64, len(parsed))
	for _, m := range parsed {
		out[m.Name] += m.Value
	}
	return out
}

// failureLog prints the first few failures of a run on standard error.
type failureLog struct {
	mu sync.Mutex
	n  int
}

func (f *failureLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n < 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
	f.n++
}
