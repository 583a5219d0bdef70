// Package trace records time series during evaluation runs — average
// power, system load, and per-class process counts — and post-processes
// them the way the paper's Figs. 14/15 present them (1-second samples,
// 1-minute moving average).
package trace

import (
	"fmt"
	"math"
	"slices"
)

// Point is one sample of a series.
type Point struct {
	T float64 // seconds
	V float64
}

// Series is an append-only time series with non-decreasing timestamps.
type Series struct {
	Name string
	pts  []Point
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample; timestamps must not decrease.
func (s *Series) Add(t, v float64) {
	if n := len(s.pts); n > 0 && t < s.pts[n-1].T {
		panic(fmt.Sprintf("trace: non-monotonic timestamp %v after %v in %s", t, s.pts[n-1].T, s.Name))
	}
	s.pts = append(s.pts, Point{t, v})
}

// Grow reserves room for n more samples, so the next n Adds do not
// reallocate.
func (s *Series) Grow(n int) { s.pts = slices.Grow(s.pts, n) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.pts) }

// Points returns the raw samples (not a copy; callers must not mutate).
func (s *Series) Points() []Point { return s.pts }

// At returns the last value at or before time t (0 before the first
// sample).
func (s *Series) At(t float64) float64 {
	// Binary search for the last point with T <= t.
	lo, hi := 0, len(s.pts)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.pts[mid].T <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return s.pts[lo-1].V
}

// Mean returns the genuinely time-weighted average over the series span:
// each sample's value holds from its timestamp until the next sample
// (the series is a step function, matching At), so irregularly spaced
// samples are weighted by how long they were in effect. For uniformly
// sampled series this equals SampleMean of all but the last point.
// Series with zero span (empty, single-sample, or all samples at one
// instant) fall back to SampleMean.
func (s *Series) Mean() float64 {
	n := len(s.pts)
	if n == 0 {
		return 0
	}
	span := s.pts[n-1].T - s.pts[0].T
	if span <= 0 {
		return s.SampleMean()
	}
	var sum float64
	for i := 0; i < n-1; i++ {
		// The conversion keeps the product from fusing with the add
		// on architectures with fused multiply-add.
		sum += float64(s.pts[i].V * (s.pts[i+1].T - s.pts[i].T))
	}
	return sum / span
}

// SampleMean returns the unweighted mean of the samples — the historical
// Mean behaviour, still correct when every sample represents an equal
// share of time (or when the caller wants sample statistics, not time
// statistics).
func (s *Series) SampleMean() float64 {
	if len(s.pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.pts {
		sum += p.V
	}
	return sum / float64(len(s.pts))
}

// Max returns the maximum sample value (0 for an empty series).
func (s *Series) Max() float64 {
	var m float64
	for i, p := range s.pts {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

// Resample returns uniform samples of the series every dt seconds from t0
// to t1 inclusive, holding the last value between samples.
func (s *Series) Resample(t0, t1, dt float64) *Series {
	out := NewSeries(s.Name)
	for t := t0; t <= t1+1e-9; t += dt {
		out.Add(t, s.At(t))
	}
	return out
}

// MovingAvg returns a new series where each sample is the mean of the
// trailing `window` seconds of the input — the paper presents system load
// as a 1-minute moving average of 1-second samples (Fig. 15).
func (s *Series) MovingAvg(window float64) *Series {
	out := NewSeries(s.Name + fmt.Sprintf(" (avg %gs)", window))
	out.Grow(len(s.pts))
	var sum float64
	start := 0
	for i, p := range s.pts {
		sum += p.V
		for s.pts[start].T < p.T-window+1e-9 {
			sum -= s.pts[start].V
			start++
		}
		out.Add(p.T, sum/float64(i-start+1))
	}
	return out
}

// Recorder samples a set of gauges on a fixed interval driven by
// simulation time.
type Recorder struct {
	Interval float64
	next     float64
	gauges   []gauge
}

type gauge struct {
	s  *Series
	fn func() float64
}

// NewRecorder creates a recorder sampling every interval seconds.
func NewRecorder(interval float64) *Recorder {
	return &Recorder{Interval: interval}
}

// Track registers a gauge function under a new named series and returns
// the series. A sample reads the gauges in the order they were tracked.
func (r *Recorder) Track(name string, fn func() float64) *Series {
	s := NewSeries(name)
	r.gauges = append(r.gauges, gauge{s, fn})
	return s
}

// Reserve makes room in every tracked series for the samples of a run
// of span simulated seconds, so sampling it never grows a series.
func (r *Recorder) Reserve(span float64) {
	n := int(span/r.Interval) + 1
	for _, g := range r.gauges {
		g.s.Grow(n)
	}
}

// NextSampleTime returns the simulation time of the next scheduled
// sample.
func (r *Recorder) NextSampleTime() float64 { return r.next }

// Tick samples all gauges if the interval elapsed since the last sample.
// Call it once per simulation step with the current simulation time.
func (r *Recorder) Tick(now float64) {
	if now+1e-12 < r.next {
		return
	}
	for _, g := range r.gauges {
		g.s.Add(now, g.fn())
	}
	// Schedule strictly ahead even if the caller's step overshot several
	// intervals. The conversion keeps the halving, which compiles to a
	// product, from fusing with the add on architectures with fused
	// multiply-add.
	r.next = math.Max(r.next+r.Interval, now+float64(r.Interval/2))
}

// TickSpan samples the ticks first..last of a fixed-step simulation, tick
// i at time float64(i)*dt, exactly as calling Tick once per tick would,
// but visits only the ticks on which a sample falls due. An empty span
// (last < first) samples nothing. A coalescing simulator calls it for the
// ticks of a committed batch, so sampling never has to end a batch (see
// sim.Machine.OnTickBounded).
func (r *Recorder) TickSpan(first, last uint64, dt float64) {
	for i := first; i <= last; {
		j := r.dueTick(i, last, dt)
		if j > last {
			return
		}
		r.Tick(tickTime(j, dt))
		i = j + 1
	}
}

// dueTick returns the first tick j in [i, last] on which Tick would take
// a sample, or last+1 when there is none.
func (r *Recorder) dueTick(i, last uint64, dt float64) uint64 {
	due := func(j uint64) bool { return !(tickTime(j, dt)+1e-12 < r.next) }
	// Estimate from the boundary, then walk to the exact tick: tick
	// times are monotonic in j, so the walk settles on the serial answer.
	j := last + 1
	switch est := (r.next - 1e-12) / dt; {
	case !(est > float64(i)):
		j = i
	case est < float64(last):
		j = uint64(est)
	}
	for j > i && due(j-1) {
		j--
	}
	for j <= last && !due(j) {
		j++
	}
	return j
}

// tickTime is the simulation time of tick j. The conversion keeps the
// product from fusing with a caller's add on architectures with fused
// multiply-add.
func tickTime(j uint64, dt float64) float64 { return float64(float64(j) * dt) }
