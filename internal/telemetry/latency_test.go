package telemetry

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestLatencyHistQuantileAccuracy replays a known heavy-tailed latency
// distribution and checks every reported quantile against the exact
// order statistic of the sorted sample. The documented bound is
// sqrt(1.02)-1 < 1% relative error.
func TestLatencyHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewLatencyHist()
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-normal body with an occasional 100x tail — the shape of a
		// service with GC pauses.
		v := math.Exp(rng.NormFloat64()*1.2) * 50e3 // ~50µs median
		if rng.Float64() < 0.01 {
			v *= 100
		}
		ns := int64(v)
		if ns < 1 {
			ns = 1
		}
		samples = append(samples, float64(ns))
		h.ObserveNs(ns)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1]
		got := h.Quantile(q)
		relErr := math.Abs(got-exact) / exact
		if relErr > 0.01 {
			t.Errorf("p%g: got %.0fns exact %.0fns relative error %.3f%% > 1%%",
				q*100, got, exact, 100*relErr)
		}
	}
	if h.Count() != 20000 {
		t.Errorf("count = %d, want 20000", h.Count())
	}
}

// TestLatencyHistObserveZeroAlloc pins the zero-allocation contract of
// the hot-path Observe.
func TestLatencyHistObserveZeroAlloc(t *testing.T) {
	h := NewLatencyHist()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(137 * time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f times per call, want 0", allocs)
	}
}

// TestLatencyHistEdges covers clamping and empty behavior.
func TestLatencyHistEdges(t *testing.T) {
	var empty LatencySnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	h := NewLatencyHist()
	h.ObserveNs(-5) // clamps to 0
	h.ObserveNs(0)
	h.ObserveNs(1 << 62)
	s := h.Snapshot()
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	if got := s.Quantile(0); got <= 0 {
		t.Errorf("q0 = %v, want > 0 (bucket midpoint)", got)
	}
	if got := s.Quantile(1); got < 1e18 {
		t.Errorf("q1 = %v, want the top observation's bucket (~4.6e18)", got)
	}
	if got := s.Quantile(2); got != s.Quantile(1) {
		t.Errorf("q>1 should clamp to q=1")
	}
}

// TestLatencySnapshotSub checks windowed subtraction isolates the
// interval between two snapshots.
func TestLatencySnapshotSub(t *testing.T) {
	h := NewLatencyHist()
	for i := 0; i < 100; i++ {
		h.ObserveNs(1000) // 1µs era
	}
	base := h.Snapshot()
	for i := 0; i < 100; i++ {
		h.ObserveNs(1_000_000) // 1ms era
	}
	win := h.Snapshot().Sub(base)
	if win.Count() != 100 {
		t.Fatalf("window count = %d, want 100", win.Count())
	}
	// The window must only see the 1ms era.
	if got := win.Quantile(0.5); math.Abs(got-1e6)/1e6 > 0.01 {
		t.Errorf("window p50 = %.0fns, want ~1e6", got)
	}
	if got := win.MeanNs(); math.Abs(got-1e6)/1e6 > 0.01 {
		t.Errorf("window mean = %.0fns, want ~1e6", got)
	}
	// Sub against a zero snapshot is identity.
	full := h.Snapshot().Sub(LatencySnapshot{})
	if full.Count() != 200 {
		t.Errorf("identity sub count = %d, want 200", full.Count())
	}
}

// TestSLOTrackerWindowRotation drives the two-epoch rotation with a fake
// clock: the windowed view must cover between one and two windows and
// drop observations older than that.
func TestSLOTrackerWindowRotation(t *testing.T) {
	tr := NewSLOTracker(time.Minute)
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

	// Epoch 1: slow era.
	for i := 0; i < 50; i++ {
		tr.Observe(10*time.Millisecond, true, t0.Add(time.Duration(i)*time.Second))
	}
	// Cross into epoch 2: fast era.
	t1 := t0.Add(70 * time.Second)
	for i := 0; i < 50; i++ {
		tr.Observe(100*time.Microsecond, false, t1.Add(time.Duration(i)*250*time.Millisecond))
	}
	// Still within two windows of the slow era: both visible.
	snap, errs, covered := tr.Windowed(t1.Add(15 * time.Second))
	if snap.Count() != 100 {
		t.Errorf("window at <2w: count = %d, want 100 (both eras)", snap.Count())
	}
	if errs != 50 {
		t.Errorf("window errors = %d, want 50", errs)
	}
	if covered <= 0 {
		t.Errorf("covered = %v, want > 0", covered)
	}

	// Cross another boundary: the slow era must rotate out.
	t2 := t1.Add(65 * time.Second)
	tr.Observe(100*time.Microsecond, false, t2)
	snap, errs, _ = tr.Windowed(t2.Add(time.Second))
	if snap.Count() >= 100 {
		t.Errorf("after rotation: count = %d, want < 100 (slow era dropped)", snap.Count())
	}
	if errs != 0 {
		t.Errorf("after rotation: errors = %d, want 0", errs)
	}
	if got := snap.Quantile(0.99); got > 1e6 {
		t.Errorf("after rotation p99 = %.0fns, slow era leaked into the window", got)
	}

	// All-time totals keep everything.
	total, totalErrs := tr.Totals()
	if total.Count() != 101 {
		t.Errorf("totals count = %d, want 101", total.Count())
	}
	if totalErrs != 50 {
		t.Errorf("totals errors = %d, want 50", totalErrs)
	}
}

// TestSLOTrackerIdleGap checks the >= 2 windows fast-forward: after a
// long idle stretch the window restarts empty rather than reporting
// ancient observations.
func TestSLOTrackerIdleGap(t *testing.T) {
	tr := NewSLOTracker(time.Minute)
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		tr.Observe(time.Millisecond, false, t0)
	}
	// 10 minutes of silence, then one observation.
	t1 := t0.Add(10 * time.Minute)
	tr.Observe(2*time.Millisecond, false, t1)
	snap, _, _ := tr.Windowed(t1.Add(time.Second))
	if snap.Count() != 1 {
		t.Errorf("after idle gap: window count = %d, want 1", snap.Count())
	}
}

// TestSLOTrackerNil pins the nil-safety contract tracing-off paths rely on.
func TestSLOTrackerNil(t *testing.T) {
	var tr *SLOTracker
	tr.Observe(time.Second, true, time.Now()) // must not panic
	if snap, errs, covered := tr.Windowed(time.Now()); snap.Count() != 0 || errs != 0 || covered != 0 {
		t.Error("nil tracker Windowed should be all-zero")
	}
	if snap, errs := tr.Totals(); snap.Count() != 0 || errs != 0 {
		t.Error("nil tracker Totals should be all-zero")
	}
	if tr.Window() != 0 {
		t.Error("nil tracker Window should be 0")
	}
}

// denseHist is the reference layout: every bucket stored, as LatencyHist
// kept them before its chunks became lazy.
type denseHist struct {
	counts [latBuckets]int64
	n, sum int64
}

func (d *denseHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	d.counts[latIndex(ns)]++
	d.n++
	d.sum += ns
}

func (d *denseHist) sub(old *denseHist) *denseHist {
	out := &denseHist{}
	for i := range d.counts {
		if c := d.counts[i] - old.counts[i]; c > 0 {
			out.counts[i] = c
			out.n += c
		}
	}
	if out.sum = d.sum - old.sum; out.sum < 0 {
		out.sum = 0
	}
	return out
}

func (d *denseHist) quantile(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := int64(math.Ceil(q * float64(d.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range d.counts {
		if cum += c; cum >= rank {
			return latMid(i)
		}
	}
	return latMid(latBuckets - 1)
}

// bucket reads bucket i of a sparse snapshot (0 when its chunk is not
// stored).
func (s LatencySnapshot) bucket(i int) int64 {
	if c := s.chunk(i / latChunk); c != nil {
		return c[i%latChunk]
	}
	return 0
}

// sameAsDense fails t unless snapshot s equals the dense reference d in
// every bucket, count, sum and quantile.
func sameAsDense(t *testing.T, what string, s LatencySnapshot, d *denseHist) {
	t.Helper()
	for i := 0; i < latBuckets; i++ {
		if s.bucket(i) != d.counts[i] {
			t.Fatalf("%s: bucket %d = %d, dense %d", what, i, s.bucket(i), d.counts[i])
		}
	}
	if s.Count() != d.n || s.SumNs() != d.sum {
		t.Fatalf("%s: count/sum %d/%d, dense %d/%d", what, s.Count(), s.SumNs(), d.n, d.sum)
	}
	for _, q := range []float64{-1, 0, 1e-9, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1, 2} {
		if got, want := s.Quantile(q), d.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: q%g = %v, dense %v", what, q, got, want)
		}
	}
}

// TestLatencyHistMatchesDense replays random latencies spanning every
// magnitude — with 0 ns, 1 ns and top-bucket values mixed in — into the
// sparse histogram and the dense reference, and requires bit-identical
// buckets, counts, quantiles and windowed differences, including a Sub
// against a snapshot holding chunks the newer one lacks.
func TestLatencyHistMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func() int64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return math.MaxInt64 - rng.Int63n(1<<40)
		case 3:
			return -rng.Int63n(100)
		}
		return int64(math.Exp(rng.Float64() * 43)) // 1 ns .. ~5e18 ns
	}
	h, d := NewLatencyHist(), &denseHist{}
	var bases []LatencySnapshot
	var dbases []*denseHist
	for round := 0; round < 6; round++ {
		for i := 0; i < 1+rng.Intn(3000); i++ {
			ns := draw()
			h.ObserveNs(ns)
			d.observe(ns)
		}
		snap := h.Snapshot()
		sameAsDense(t, "snapshot", snap, d)
		for j, base := range bases {
			sameAsDense(t, "window", snap.Sub(base), d.sub(dbases[j]))
		}
		bases = append(bases, snap)
		cp := *d
		dbases = append(dbases, &cp)
	}

	// A base with chunks the newer snapshot has never seen.
	other, dother := NewLatencyHist(), &denseHist{}
	for _, ns := range []int64{0, 1, 3, 1 << 20, 1 << 40, math.MaxInt64} {
		other.ObserveNs(ns)
		dother.observe(ns)
	}
	small, dsmall := NewLatencyHist(), &denseHist{}
	small.ObserveNs(5000)
	dsmall.observe(5000)
	sameAsDense(t, "disjoint window", small.Snapshot().Sub(other.Snapshot()), dsmall.sub(dother))
	sameAsDense(t, "empty", NewLatencyHist().Snapshot(), &denseHist{})
}

// TestLatencyHistConcurrentWarmUp races first observations into cold
// chunks: every goroutine starts on the same cold chunk, and the counts
// must come out exact (run under -race to check the CAS publication).
func TestLatencyHistConcurrentWarmUp(t *testing.T) {
	const workers, per = 8, 2000
	values := []int64{1000, 1001, 1003, 5_000_000_000}
	for round := 0; round < 20; round++ {
		h := NewLatencyHist()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < per; i++ {
					h.ObserveNs(values[i%len(values)])
				}
			}()
		}
		close(start)
		wg.Wait()
		d := &denseHist{}
		for w := 0; w < workers; w++ {
			for i := 0; i < per; i++ {
				d.observe(values[i%len(values)])
			}
		}
		sameAsDense(t, "concurrent", h.Snapshot(), d)
	}
}

// TestLatencyHistMemoryInProportion pins the sparse layout: an idle
// histogram stores no chunk, and observations in one decade of latency
// warm only the chunks that decade spans.
func TestLatencyHistMemoryInProportion(t *testing.T) {
	h := NewLatencyHist()
	if s := h.Snapshot(); s.mask != 0 || len(s.counts) != 0 {
		t.Fatalf("idle histogram stores %d buckets", len(s.counts))
	}
	for ns := int64(1_000); ns < 10_000; ns += 7 {
		h.ObserveNs(ns)
	}
	// One decade is ln(10)/ln(1.02) = 116 buckets: at most three chunks.
	if s := h.Snapshot(); bits.OnesCount64(s.mask) > 3 || len(s.counts) != bits.OnesCount64(s.mask)*latChunk {
		t.Fatalf("one decade warmed %d chunks (%d buckets stored)", bits.OnesCount64(s.mask), len(s.counts))
	}
}

// TestLatencyHistWarmObserveZeroAlloc pins Observe into a warm chunk at
// zero allocations, at both ends of the range.
func TestLatencyHistWarmObserveZeroAlloc(t *testing.T) {
	h := NewLatencyHist()
	for _, ns := range []int64{0, 137_000, math.MaxInt64} {
		h.ObserveNs(ns) // warm the chunk
		if allocs := testing.AllocsPerRun(1000, func() { h.ObserveNs(ns) }); allocs != 0 {
			t.Errorf("ObserveNs(%d) into a warm chunk allocates %.1f times, want 0", ns, allocs)
		}
	}
}
