// Package telemetry is the unified observability layer of the repository:
// a registry of counters, gauges and fixed-bucket histograms plus a typed
// decision trace (tracer.go) that records every placement/voltage decision
// the daemon takes together with the inputs and the rule that fired.
//
// The paper's daemon claims rest on runtime properties — reconfigurations
// always follow the fail-safe voltage protocol, classification churn is
// bounded by hysteresis, the daemon's own overhead is negligible — that
// can only be checked by watching the daemon run. This package makes those
// properties observable; internal/telemetry/export renders the registry as
// Prometheus text format and the decision trace as JSONL.
//
// Design constraints:
//
//   - Zero allocation on the hot path. Counter.Inc, FloatCounter.Add and
//     Histogram.Observe are lock-free atomics on pre-registered metrics;
//     gauges are callbacks evaluated only at export time; the tracer is a
//     pair of atomic flag checks when disabled.
//   - Safe under the race detector: instrumented code may run while an
//     exporter gathers, so every mutable cell is atomic.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value read from a callback.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String names the kind the way Prometheus TYPE lines spell it.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Label is one metric dimension, baked in at registration time (no
// per-observation label lookup, which would allocate on the hot path).
type Label struct {
	Key, Value string
}

// Labels is a convenience constructor: Labels("pmd", "3", "class", "full").
func Labels(kv ...string) []Label {
	if len(kv)%2 != 0 {
		panic("telemetry: Labels needs key/value pairs")
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{kv[i], kv[i+1]})
	}
	return out
}

// renderName appends the {k="v",...} suffix to a metric name, producing
// the canonical identity used for duplicate detection and lookups. Values
// are quoted as %q quotes them.
func renderName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	n := len(name) + 2
	for _, l := range labels {
		n += len(l.Key) + len(l.Value) + 4
	}
	b := make([]byte, 0, n)
	b = append(b, name...)
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return string(append(b, '}'))
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be non-negative; counters never decrease).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float metric — used for
// accumulated durations such as per-PMD frequency-class residency.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates d.
func (c *FloatCounter) Add(d float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last is +Inf
	sumBits atomic.Uint64
	n       atomic.Int64
}

// Observe records one value. Allocation-free; the bucket scan is linear
// over the (small, fixed) bound list.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile returns an approximate q-quantile of the observed
// distribution by linear interpolation within the bucket the exact rank
// falls in (the classic Prometheus histogram_quantile estimator). The
// error is bounded by the width of that bucket: exact only if
// observations are uniform within it. Observations above the last finite
// bound clamp to that bound (the +Inf bucket has no width to interpolate
// over). q is clamped to [0,1]; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	return BucketQuantile(h.bounds, h.BucketCounts(), q)
}

// BucketQuantile is Histogram.Quantile over raw gathered data: bounds
// are ascending upper bounds and buckets the per-bucket non-cumulative
// counts with the +Inf bucket last (the Sample.Bounds/Sample.Buckets
// layout), so exporters and offline analysis can compute quantiles from
// a snapshot without the live histogram.
func BucketQuantile(bounds []float64, buckets []int64, q float64) float64 {
	var n int64
	for _, c := range buckets {
		n += c
	}
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := math.Ceil(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range buckets {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: clamp to the last finite bound.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		// Position of the rank within this bucket's count.
		into := rank - float64(cum-c)
		return lo + (hi-lo)*into/float64(c)
	}
	return bounds[len(bounds)-1]
}

// Sample is one gathered metric value. For histograms Value holds the
// observation count and the distribution fields are populated.
type Sample struct {
	Name   string // family name, without labels
	Full   string // canonical name including labels
	Labels []Label
	Kind   Kind
	Help   string
	Value  float64
	// Histogram-only fields.
	Bounds  []float64
	Buckets []int64
	Sum     float64
}

// metric is one registered entry.
type metric struct {
	name   string
	full   string
	labels []Label
	kind   Kind
	help   string

	counter  *Counter
	fcounter *FloatCounter
	fn       func() float64
	hist     *Histogram
}

// Registry holds a fixed set of metrics registered at startup. Reads
// (Gather, Value) may run concurrently with hot-path updates.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	byFull  map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byFull: map[string]*metric{}}
}

// register adds a metric, panicking on duplicate identity (a programming
// error: metrics are registered once at startup).
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m.full = renderName(m.name, m.labels)
	if _, dup := r.byFull[m.full]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %s", m.full))
	}
	r.byFull[m.full] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, labels: labels, kind: KindCounter, help: help, counter: c})
	return c
}

// FloatCounter registers and returns a float counter (exported as a
// Prometheus counter).
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	c := &FloatCounter{}
	r.register(&metric{name: name, labels: labels, kind: KindCounter, help: help, fcounter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at gather
// time — for monotone quantities another component already tracks (the
// daemon's action counters, the simulator's emergency count), so the
// interactive status and the exported metrics can never disagree.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, labels: labels, kind: KindCounter, help: help, fn: fn})
}

// Gauge registers a gauge backed by a callback evaluated at gather time.
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, labels: labels, kind: KindGauge, help: help, fn: fn})
}

// Histogram registers and returns a fixed-bucket histogram. Bounds must be
// ascending upper bounds; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	r.register(&metric{name: name, labels: labels, kind: KindHistogram, help: help, hist: h})
	return h
}

// value reads a metric's scalar value.
func (m *metric) value() float64 {
	switch {
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.fcounter != nil:
		return m.fcounter.Value()
	case m.fn != nil:
		return m.fn()
	case m.hist != nil:
		return float64(m.hist.Count())
	}
	return 0
}

// Gather snapshots every metric, sorted by canonical name.
func (r *Registry) Gather() []Sample {
	r.mu.RLock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.RUnlock()
	out := make([]Sample, 0, len(metrics))
	for _, m := range metrics {
		s := Sample{
			Name: m.name, Full: m.full, Labels: m.labels,
			Kind: m.kind, Help: m.help, Value: m.value(),
		}
		if m.hist != nil {
			s.Bounds = m.hist.Bounds()
			s.Buckets = m.hist.BucketCounts()
			s.Sum = m.hist.Sum()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Full < out[j].Full })
	return out
}

// Value looks up one metric by canonical name (including any label
// suffix) and returns its scalar value.
func (r *Registry) Value(full string) (float64, bool) {
	r.mu.RLock()
	m, ok := r.byFull[full]
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return m.value(), true
}
