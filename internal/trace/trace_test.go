package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 1)
	s.Add(1, 3)
	s.Add(2, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Time-weighted: 1 holds over [0,1), 3 over [1,2); the final sample
	// has zero width.
	if s.Mean() != 2 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.SampleMean() != 3 {
		t.Errorf("SampleMean = %v", s.SampleMean())
	}
	if s.Max() != 5 {
		t.Errorf("Max = %v", s.Max())
	}
}

func TestMeanTimeWeighted(t *testing.T) {
	// Non-uniform series: 10 holds for 9 seconds, 100 for 1 second.
	s := NewSeries("x")
	s.Add(0, 10)
	s.Add(9, 100)
	s.Add(10, 0)
	want := (10*9 + 100*1) / 10.0
	if got := s.Mean(); math.Abs(got-want) > 1e-12 {
		t.Errorf("time-weighted Mean = %v, want %v", got, want)
	}
	// The sample mean ignores the spacing entirely.
	if got := s.SampleMean(); math.Abs(got-110.0/3) > 1e-12 {
		t.Errorf("SampleMean = %v, want %v", got, 110.0/3)
	}
}

func TestMeanDegenerateSpans(t *testing.T) {
	single := NewSeries("one")
	single.Add(5, 7)
	if single.Mean() != 7 {
		t.Errorf("single-sample Mean = %v, want 7", single.Mean())
	}
	instant := NewSeries("instant")
	instant.Add(2, 4)
	instant.Add(2, 8)
	if instant.Mean() != 6 {
		t.Errorf("zero-span Mean = %v, want SampleMean 6", instant.Mean())
	}
}

func TestSeriesAt(t *testing.T) {
	s := NewSeries("x")
	s.Add(1, 10)
	s.Add(3, 30)
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 10}, {2, 10}, {3, 30}, {99, 30},
	}
	for _, tc := range cases {
		if got := s.At(tc.t); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestNonMonotonicPanics(t *testing.T) {
	s := NewSeries("x")
	s.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("decreasing timestamp should panic")
		}
	}()
	s.Add(4, 1)
}

func TestMovingAvg(t *testing.T) {
	s := NewSeries("load")
	for i := 0; i < 10; i++ {
		v := 0.0
		if i >= 5 {
			v = 10
		}
		s.Add(float64(i), v)
	}
	avg := s.MovingAvg(3)
	if avg.Len() != 10 {
		t.Fatalf("moving average must keep the sample count, got %d", avg.Len())
	}
	pts := avg.Points()
	// At t=5: window {3,4,5} → values {0,0,10} → 10/3.
	if got := pts[5].V; math.Abs(got-10.0/3.0) > 1e-12 {
		t.Errorf("avg at t=5 = %v, want 3.33", got)
	}
	// At t=9: window {7,8,9} → all 10.
	if got := pts[9].V; got != 10 {
		t.Errorf("avg at t=9 = %v, want 10", got)
	}
	// The moving average must smooth the step, never overshoot.
	for i, p := range pts {
		if p.V < 0 || p.V > 10 {
			t.Errorf("avg[%d] = %v overshoots", i, p.V)
		}
	}
}

func TestResample(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 1)
	s.Add(2.5, 2)
	r := s.Resample(0, 4, 1)
	if r.Len() != 5 {
		t.Fatalf("resample length %d, want 5", r.Len())
	}
	want := []float64{1, 1, 1, 2, 2}
	for i, p := range r.Points() {
		if p.V != want[i] {
			t.Errorf("resample[%d] = %v, want %v", i, p.V, want[i])
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder(1.0)
	v := 0.0
	s := r.Track("gauge", func() float64 { return v })
	for i := 0; i < 50; i++ {
		now := float64(i) / 10 // exact tenths: no accumulation drift
		v = now
		r.Tick(now)
	}
	if s.Len() != 5 {
		t.Fatalf("recorder took %d samples over 5s at 1Hz, want 5", s.Len())
	}
	pts := s.Points()
	if pts[0].T != 0 {
		t.Errorf("first sample at %v, want 0", pts[0].T)
	}
	for i := 1; i < len(pts); i++ {
		if dt := pts[i].T - pts[i-1].T; dt < 0.9 || dt > 1.2 {
			t.Errorf("sample spacing %v", dt)
		}
	}
}

func TestRecorderMultipleGauges(t *testing.T) {
	r := NewRecorder(0.5)
	a := r.Track("a", func() float64 { return 1 })
	b := r.Track("b", func() float64 { return 2 })
	r.Tick(0)
	r.Tick(0.5)
	if a.Len() != 2 || b.Len() != 2 {
		t.Errorf("gauge sample counts %d/%d, want 2/2", a.Len(), b.Len())
	}
	if a.Points()[0].V != 1 || b.Points()[0].V != 2 {
		t.Error("gauge values wrong")
	}
}

// TestRecorderTickSpanMatchesPerTick: sampling the ticks of arbitrary
// spans, whole or as interior plus last tick, takes the same samples at
// the same times with the same schedule as calling Tick on every tick.
func TestRecorderTickSpanMatchesPerTick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dt := range []float64{0.001, 0.007, 0.01, 0.1, 0.3} {
		for _, interval := range []float64{1, 0.25, 0.0105, 0} {
			ref, span, split := NewRecorder(interval), NewRecorder(interval), NewRecorder(interval)
			var calls [3]int
			series := make([]*Series, 3)
			for i, r := range []*Recorder{ref, span, split} {
				series[i] = r.Track("calls", func() float64 { calls[i]++; return float64(calls[i]) })
			}
			for tick := uint64(1); tick < 20000; {
				k := uint64(1 + rng.Intn(700))
				if rng.Intn(4) == 0 {
					k = 1
				}
				last := tick + k - 1
				for i := tick; i <= last; i++ {
					ref.Tick(float64(i) * dt)
				}
				span.TickSpan(tick, last, dt)
				split.TickSpan(tick, last-1, dt)
				split.Tick(float64(last) * dt)
				for i, r := range []*Recorder{span, split} {
					if r.NextSampleTime() != ref.NextSampleTime() || calls[i+1] != calls[0] {
						t.Fatalf("dt %v interval %v, ticks %d..%d: recorder %d next %v after %d samples, per-tick %v after %d",
							dt, interval, tick, last, i, r.NextSampleTime(), calls[i+1], ref.NextSampleTime(), calls[0])
					}
				}
				tick = last + 1
			}
			if calls[0] < 20 {
				t.Fatalf("dt %v interval %v: only %d samples", dt, interval, calls[0])
			}
			for i := 1; i < 3; i++ {
				if !reflect.DeepEqual(series[i].Points(), series[0].Points()) {
					t.Errorf("dt %v interval %v: recorder %d sampled different points", dt, interval, i)
				}
			}
		}
	}
	r := NewRecorder(1)
	s := r.Track("g", func() float64 { return 1 })
	r.TickSpan(5, 4, 0.01)
	if s.Len() != 0 {
		t.Error("an empty span took a sample")
	}
}

func TestEmptySeries(t *testing.T) {
	s := NewSeries("empty")
	if s.Mean() != 0 || s.Max() != 0 || s.At(1) != 0 {
		t.Error("empty series must be all zeros")
	}
	if s.MovingAvg(10).Len() != 0 {
		t.Error("moving average of empty series must be empty")
	}
}
