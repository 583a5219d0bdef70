package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyHist is a high-resolution log-bucketed latency histogram for
// tail-latency SLOs. Bucket upper bounds grow geometrically by latGrowth
// per bucket, and a quantile is reported as the geometric midpoint of the
// bucket the exact rank lands in, so the relative error of any reported
// quantile is bounded by sqrt(latGrowth)-1 — just under 1% — at every
// magnitude from nanoseconds to minutes. Observe is lock-free (one float
// log plus atomic adds) and allocation-free once the chunk it lands in is
// warm, which is what lets the serving hot path observe every request and
// every tick-batch commit inside the existing <=5% telemetry overhead
// budget.
//
// Memory is in proportion to use: the buckets live in latChunk-bucket
// chunks, each allocated (512 B) by the first observation that lands in
// it, so an idle histogram is its chunk table (~300 B) and a service
// whose latencies span three decades holds about nine chunks.
//
// Unlike the fixed-bucket Histogram, LatencyHist is not a Prometheus
// metric kind: SLO surfaces export its quantiles as gauges instead of
// shipping ~2200 cumulative bucket series per scrape.
type LatencyHist struct {
	chunks [latChunks]atomic.Pointer[latChunkCounts]
	n      atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

const (
	// latGrowth is the per-bucket geometric growth factor. The quantile
	// error bound is sqrt(1.02)-1 = 0.995%.
	latGrowth = 1.02
	// latBuckets covers [1ns, 2^63 ns): ceil(ln(2^63)/ln(1.02)) = 2206.
	latBuckets = 2206
	// latChunk buckets share one lazily allocated chunk.
	latChunk  = 64
	latChunks = (latBuckets + latChunk - 1) / latChunk
)

// latChunkCounts is one chunk of bucket counters.
type latChunkCounts [latChunk]atomic.Int64

var (
	latLn    = math.Log(latGrowth)
	latInvLn = 1 / latLn
)

// latIndex maps a nanosecond value onto its bucket. Values below 1ns
// clamp into bucket 0; the top bucket catches everything past the range.
func latIndex(ns int64) int {
	if ns <= 1 {
		return 0
	}
	i := int(math.Log(float64(ns)) * latInvLn)
	if i < 0 {
		return 0
	}
	if i >= latBuckets {
		return latBuckets - 1
	}
	return i
}

// latMid returns bucket i's geometric midpoint in nanoseconds — the value
// quantiles report.
func latMid(i int) float64 { return math.Exp((float64(i) + 0.5) * latLn) }

// NewLatencyHist creates an empty histogram.
func NewLatencyHist() *LatencyHist { return &LatencyHist{} }

// Observe records one duration. Lock-free; allocation-free into a warm
// chunk.
func (h *LatencyHist) Observe(d time.Duration) { h.ObserveNs(d.Nanoseconds()) }

// ObserveNs records one duration given in nanoseconds.
func (h *LatencyHist) ObserveNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := latIndex(ns)
	c := h.chunks[i/latChunk].Load()
	if c == nil {
		c = h.warm(i / latChunk)
	}
	c[i%latChunk].Add(1)
	h.n.Add(1)
	h.sum.Add(ns)
}

// warm allocates chunk k on its first observation. Concurrent first
// observations race one CAS; the losers count into the winner's chunk.
func (h *LatencyHist) warm(k int) *latChunkCounts {
	fresh := new(latChunkCounts)
	if h.chunks[k].CompareAndSwap(nil, fresh) {
		return fresh
	}
	return h.chunks[k].Load()
}

// Count returns the number of observations.
func (h *LatencyHist) Count() int64 { return h.n.Load() }

// Quantile returns the q-quantile of all observations in nanoseconds
// (see LatencySnapshot.Quantile for the rank and error contract).
func (h *LatencyHist) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Snapshot copies the current state for windowed SLO math, storing only
// the warm chunks. Concurrent observations may land between bucket
// reads; the snapshot is a consistent-enough point-in-time view for
// quantile extraction (each bucket is internally exact, and rank
// extraction tolerates the count being off by in-flight observations).
func (h *LatencyHist) Snapshot() LatencySnapshot {
	var warm [latChunks]*latChunkCounts
	s := LatencySnapshot{taken: true}
	for k := range h.chunks {
		if warm[k] = h.chunks[k].Load(); warm[k] != nil {
			s.mask |= 1 << k
		}
	}
	s.counts = make([]int64, 0, bits.OnesCount64(s.mask)*latChunk)
	for _, c := range warm {
		if c == nil {
			continue
		}
		for i := range c {
			v := c[i].Load()
			s.counts = append(s.counts, v)
			s.n += v
		}
	}
	s.sum = h.sum.Load()
	return s
}

// LatencySnapshot is an immutable point-in-time copy of a LatencyHist,
// the unit of windowed SLO math: subtract an older snapshot to get the
// distribution of just the interval between them. It holds the chunks
// that were warm when it was taken; every other bucket is zero.
type LatencySnapshot struct {
	// mask has bit k set when chunk k is stored; counts holds the stored
	// chunks' buckets in ascending chunk order, latChunk per chunk.
	mask   uint64
	counts []int64
	n      int64
	sum    int64
	taken  bool // false for the zero value, which stands for "no snapshot"
}

// chunk returns the stored buckets of chunk k, nil when it is not stored.
func (s *LatencySnapshot) chunk(k int) []int64 {
	if s.mask&(1<<k) == 0 {
		return nil
	}
	j := bits.OnesCount64(s.mask&(1<<k-1)) * latChunk
	return s.counts[j : j+latChunk]
}

// Count returns the snapshot's observation count.
func (s LatencySnapshot) Count() int64 { return s.n }

// SumNs returns the snapshot's total observed nanoseconds.
func (s LatencySnapshot) SumNs() int64 { return s.sum }

// MeanNs returns the mean observation in nanoseconds (0 when empty).
func (s LatencySnapshot) MeanNs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Sub returns the distribution of observations recorded after old was
// taken: the per-bucket difference, clamped at zero. A bucket old holds
// and s does not differs by a negative count, so it clamps away.
func (s LatencySnapshot) Sub(old LatencySnapshot) LatencySnapshot {
	if !old.taken {
		return s
	}
	d := LatencySnapshot{mask: s.mask, counts: make([]int64, len(s.counts)), taken: true}
	j := 0
	for k := 0; k < latChunks; k++ {
		if s.mask&(1<<k) == 0 {
			continue
		}
		prev := old.chunk(k)
		for i, c := range s.counts[j : j+latChunk] {
			if prev != nil {
				c -= prev[i]
			}
			if c < 0 {
				c = 0
			}
			d.counts[j+i] = c
			d.n += c
		}
		j += latChunk
	}
	if d.sum = s.sum - old.sum; d.sum < 0 {
		d.sum = 0
	}
	return d
}

// Quantile returns the q-quantile in nanoseconds by exact rank: the
// ceil(q*n)-th smallest observation's bucket, reported as the bucket's
// geometric midpoint, so the result is within sqrt(latGrowth)-1 (<1%)
// of the true order statistic. q is clamped to [0,1]; an empty snapshot
// reports 0.
func (s LatencySnapshot) Quantile(q float64) float64 {
	if s.n == 0 || s.counts == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	j := 0
	for k := 0; k < latChunks; k++ {
		if s.mask&(1<<k) == 0 {
			continue
		}
		for i, c := range s.counts[j : j+latChunk] {
			cum += c
			if cum >= rank {
				return latMid(k*latChunk + i)
			}
		}
		j += latChunk
	}
	return latMid(latBuckets - 1)
}

// SLOTracker pairs a LatencyHist with an error counter and a rolling
// window, the per-surface unit of SLO accounting (one for request
// latency, one for advance latency). The window is the standard
// two-epoch rotation: snapshots are taken at epoch boundaries and the
// windowed view is everything since the previous epoch's start, so a
// query always covers between one and two windows of recent data without
// per-observation timestamping.
//
// All methods are nil-safe: a nil tracker (tracing disabled) costs one
// branch per call site.
type SLOTracker struct {
	hist   *LatencyHist
	window time.Duration

	// epochEnd mirrors epochStart+window as unix nanoseconds so the
	// Observe fast path can rule out a rotation with one atomic load
	// instead of taking the mutex on every observation.
	epochEnd atomic.Int64
	errs     atomic.Int64

	mu         sync.Mutex
	epochStart time.Time
	prevBase   LatencySnapshot
	prevErrs   int64
	curBase    LatencySnapshot
	curErrs    int64
}

// DefaultSLOWindow is the rolling window when the caller picks none.
const DefaultSLOWindow = time.Minute

// NewSLOTracker creates a tracker with the given rolling window
// (<= 0 selects DefaultSLOWindow).
func NewSLOTracker(window time.Duration) *SLOTracker {
	if window <= 0 {
		window = DefaultSLOWindow
	}
	return &SLOTracker{hist: NewLatencyHist(), window: window}
}

// Window returns the configured rolling window.
func (t *SLOTracker) Window() time.Duration {
	if t == nil {
		return 0
	}
	return t.window
}

// Observe records one operation: its latency, whether it failed, and the
// wall-clock time (injected so tests drive rotation with a fake clock).
func (t *SLOTracker) Observe(d time.Duration, failed bool, now time.Time) {
	if t == nil {
		return
	}
	// Fast path: inside the current epoch no rotation is possible, so the
	// whole record is lock-free (epochEnd load + errs add + histogram).
	if end := t.epochEnd.Load(); end != 0 && now.UnixNano() < end {
		if failed {
			t.errs.Add(1)
		}
		t.hist.Observe(d)
		return
	}
	t.mu.Lock()
	// Rotate before recording so an observation that itself crosses an
	// epoch boundary lands in the new window, not the snapshot baseline.
	t.rotateLocked(now)
	if failed {
		t.errs.Add(1)
	}
	t.mu.Unlock()
	t.hist.Observe(d)
}

// rotateLocked advances the epoch state to now. mu must be held.
func (t *SLOTracker) rotateLocked(now time.Time) {
	if t.epochStart.IsZero() {
		t.epochStart = now
		t.epochEnd.Store(now.Add(t.window).UnixNano())
		return
	}
	elapsed := now.Sub(t.epochStart)
	if elapsed < t.window {
		return
	}
	if elapsed >= 2*t.window {
		// Idle gap: both epochs are stale; restart the window empty.
		snap, errs := t.hist.Snapshot(), t.errs.Load()
		t.prevBase, t.prevErrs = snap, errs
		t.curBase, t.curErrs = snap, errs
		t.epochStart = now
		t.epochEnd.Store(now.Add(t.window).UnixNano())
		return
	}
	t.prevBase, t.prevErrs = t.curBase, t.curErrs
	t.curBase, t.curErrs = t.hist.Snapshot(), t.errs.Load()
	t.epochStart = t.epochStart.Add(t.window)
	t.epochEnd.Store(t.epochStart.Add(t.window).UnixNano())
}

// Totals returns the all-time distribution and error count.
func (t *SLOTracker) Totals() (LatencySnapshot, int64) {
	if t == nil {
		return LatencySnapshot{}, 0
	}
	return t.hist.Snapshot(), t.errs.Load()
}

// Windowed returns the rolling-window distribution and error count —
// every observation since the start of the previous epoch, covering
// between one and two windows — plus the span of wall time it covers.
func (t *SLOTracker) Windowed(now time.Time) (LatencySnapshot, int64, time.Duration) {
	if t == nil {
		return LatencySnapshot{}, 0, 0
	}
	t.mu.Lock()
	t.rotateLocked(now)
	base, errBase := t.prevBase, t.prevErrs
	errs := t.errs.Load() - errBase
	covered := t.window
	if !t.epochStart.IsZero() {
		if since := now.Sub(t.epochStart); since > 0 && base.taken {
			covered = t.window + since
		} else if !base.taken {
			covered = since
		}
	}
	t.mu.Unlock()
	snap := t.hist.Snapshot().Sub(base)
	if errs < 0 {
		errs = 0
	}
	return snap, errs, covered
}
