package power

import (
	"math"
	"testing"
	"testing/quick"

	"avfs/internal/chip"
)

// fullLoadState builds a state with every core busy at frequency f and
// voltage v, with uniform activity.
func fullLoadState(s *chip.Spec, v chip.Millivolts, f chip.MHz, activity, stall float64) State {
	st := State{
		Voltage: v,
		PMDFreq: make([]chip.MHz, s.PMDs()),
		Cores:   make([]CoreState, s.Cores),
		MemUtil: 0.5,
	}
	for i := range st.PMDFreq {
		st.PMDFreq[i] = f
	}
	for i := range st.Cores {
		st.Cores[i] = CoreState{Busy: true, Activity: activity, StallFrac: stall}
	}
	return st
}

func TestFullLoadWithinTDP(t *testing.T) {
	for _, s := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		m := NewModel(s)
		st := fullLoadState(s, s.NominalMV, s.MaxFreq, 1.0, 0)
		st.MemUtil = 1.0
		p := m.Power(st).Total()
		if p > s.TDPWatts {
			t.Errorf("%s: worst-case power %.1fW exceeds TDP %.0fW", s.Name, p, s.TDPWatts)
		}
		if p < s.TDPWatts*0.4 {
			t.Errorf("%s: worst-case power %.1fW implausibly far below TDP %.0fW", s.Name, p, s.TDPWatts)
		}
	}
}

func TestIdleBelowBusy(t *testing.T) {
	for _, s := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		m := NewModel(s)
		idle := m.IdlePower(s.NominalMV, s.MaxFreq)
		busy := m.Power(fullLoadState(s, s.NominalMV, s.MaxFreq, 0.8, 0)).Total()
		if idle >= busy {
			t.Errorf("%s: idle %.1fW >= busy %.1fW", s.Name, idle, busy)
		}
		if idle <= 0 {
			t.Errorf("%s: idle power %.1fW must be positive (leakage floor)", s.Name, idle)
		}
	}
}

func TestPowerMonotoneInVoltage(t *testing.T) {
	s := chip.XGene3Spec()
	m := NewModel(s)
	prev := 0.0
	for v := s.MinSafeMV; v <= s.NominalMV; v += 10 {
		p := m.Power(fullLoadState(s, v, s.MaxFreq, 0.8, 0.2)).Total()
		if p <= prev {
			t.Fatalf("power not increasing in voltage at %v", v)
		}
		prev = p
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	s := chip.XGene2Spec()
	m := NewModel(s)
	prev := 0.0
	for _, f := range s.FreqSteps() {
		p := m.Power(fullLoadState(s, s.NominalMV, f, 0.8, 0.2)).Total()
		if p <= prev {
			t.Fatalf("power not increasing in frequency at %v", f)
		}
		prev = p
	}
}

func TestVoltageQuadraticDominance(t *testing.T) {
	// Dynamic power must scale ~V²: dropping X-Gene 3 from 870 to 820 mV
	// should cut the dynamic components by ~(820/870)² = 0.888.
	s := chip.XGene3Spec()
	m := NewModel(s)
	hi := m.Power(fullLoadState(s, 870, s.MaxFreq, 0.8, 0))
	lo := m.Power(fullLoadState(s, 820, s.MaxFreq, 0.8, 0))
	ratio := lo.CoreDynamic / hi.CoreDynamic
	want := (820.0 / 870.0) * (820.0 / 870.0)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("core dynamic scaling = %.4f, want %.4f", ratio, want)
	}
	// Leakage scales ~V³ (steeper).
	leakRatio := lo.Leakage / hi.Leakage
	if leakRatio >= ratio {
		t.Errorf("leakage scaling %.4f should be steeper than dynamic %.4f", leakRatio, ratio)
	}
}

func TestStalledCoreBurnsLess(t *testing.T) {
	s := chip.XGene3Spec()
	m := NewModel(s)
	comp := m.Power(fullLoadState(s, s.NominalMV, s.MaxFreq, 0.8, 0)).CoreDynamic
	stalled := m.Power(fullLoadState(s, s.NominalMV, s.MaxFreq, 0.8, 0.9)).CoreDynamic
	if stalled >= comp {
		t.Errorf("stalled cores %.1fW >= compute-bound cores %.1fW", stalled, comp)
	}
	if stalled < comp*stallActivityFloor*0.9 {
		t.Errorf("stalled cores %.1fW below the activity floor of %.1fW", stalled, comp*stallActivityFloor)
	}
}

func TestClusteringSavesUncorePower(t *testing.T) {
	// 4 threads on 2 PMDs (clustered) must burn less uncore power than
	// 4 threads on 4 PMDs (spreaded) — the Fig. 7 mechanism.
	s := chip.XGene2Spec()
	m := NewModel(s)
	mk := func(cores []int) State {
		st := fullLoadState(s, s.NominalMV, s.MaxFreq, 0, 0)
		for i := range st.Cores {
			st.Cores[i] = CoreState{}
		}
		for _, c := range cores {
			st.Cores[c] = CoreState{Busy: true, Activity: 0.8}
		}
		return st
	}
	clustered := m.Power(mk([]int{0, 1, 2, 3}))
	spreaded := m.Power(mk([]int{0, 2, 4, 6}))
	if clustered.PMDUncore >= spreaded.PMDUncore {
		t.Errorf("clustered uncore %.2fW >= spreaded %.2fW", clustered.PMDUncore, spreaded.PMDUncore)
	}
	// Both states have 4 busy and 4 idle cores at the same V/F, so core
	// dynamic power must match (up to summation order).
	if math.Abs(clustered.CoreDynamic-spreaded.CoreDynamic) > 1e-9 {
		t.Errorf("core dynamic differs: %.3f vs %.3f", clustered.CoreDynamic, spreaded.CoreDynamic)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{CoreDynamic: 1, PMDUncore: 2, L3Fabric: 3, MemCtl: 4, Leakage: 5}
	if b.Total() != 15 {
		t.Errorf("Total = %v, want 15", b.Total())
	}
}

func TestPowerShapePanics(t *testing.T) {
	m := NewModel(chip.XGene2Spec())
	defer func() {
		if recover() == nil {
			t.Error("mismatched state shape should panic")
		}
	}()
	m.Power(State{Voltage: 980, PMDFreq: make([]chip.MHz, 1), Cores: make([]CoreState, 1)})
}

func TestMemUtilClamped(t *testing.T) {
	s := chip.XGene2Spec()
	m := NewModel(s)
	st := fullLoadState(s, s.NominalMV, s.MaxFreq, 0.5, 0)
	st.MemUtil = 5.0
	over := m.Power(st).MemCtl
	st.MemUtil = 1.0
	one := m.Power(st).MemCtl
	if over != one {
		t.Errorf("MemUtil must clamp at 1: %.2f vs %.2f", over, one)
	}
}

func TestMeterAccumulation(t *testing.T) {
	var e Meter
	ten := Breakdown{CoreDynamic: 4, Leakage: 6}.Quanta(0.5)
	twenty := Breakdown{CoreDynamic: 20}.Quanta(0.5)
	e.Commit(&ten, 10, 4, 0.5)
	e.Commit(&twenty, 20, 2, 0.5)
	if e.Energy() != 40 {
		t.Errorf("Energy = %v, want 40", e.Energy())
	}
	if bd := e.Breakdown(); bd != (Breakdown{CoreDynamic: 28, Leakage: 12}) {
		t.Errorf("Breakdown = %+v", bd)
	}
	if e.Seconds() != 3 {
		t.Errorf("Seconds = %v, want 3", e.Seconds())
	}
	if e.AveragePower() != 40.0/3.0 {
		t.Errorf("AveragePower = %v", e.AveragePower())
	}
	if e.Peak() != 20 {
		t.Errorf("Peak = %v, want 20", e.Peak())
	}
	var zero Meter
	if zero.Energy() != 0 || zero.Seconds() != 0 || zero.AveragePower() != 0 {
		t.Error("a fresh meter is not zero")
	}
}

func TestMeterNegativeDtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dt should panic")
		}
	}()
	Quanta(1, -1)
}

// TestQuantaRange: one tick's energy outside a uint64 of quanta, or not a
// number, panics instead of wrapping.
func TestQuantaRange(t *testing.T) {
	for _, watts := range []float64{math.NaN(), math.Inf(1), -1, 0x1p33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quanta(%v, 1) did not panic", watts)
				}
			}()
			Quanta(watts, 1)
		}()
	}
	if got := Quanta(1.5, 0.25); got != 3<<(quantumBits-3) {
		t.Errorf("Quanta(1.5, 0.25) = %d, want %d", got, 3<<(quantumBits-3))
	}
	// Halfway cases round to the even quantum.
	if a, b := Quanta(2.5*Quantum, 1), Quanta(3.5*Quantum, 1); a != 2 || b != 4 {
		t.Errorf("Quanta of 2.5 and 3.5 quanta = %d, %d; want 2, 4", a, b)
	}
}

// TestJoulesCarry: a 128-bit sum crossing 2^64 quanta carries into the
// high word and reads back the correctly rounded float.
func TestJoulesCarry(t *testing.T) {
	var j Joules
	j.Add(1<<63, 3) // 1.5 × 2^64 quanta
	if j != (Joules{Hi: 1, Lo: 1 << 63}) {
		t.Fatalf("3 × 2^63 quanta = %+v", j)
	}
	if got, want := j.J(), 1.5*0x1p64*Quantum; got != want {
		t.Errorf("J() = %v, want %v", got, want)
	}
	j.Add(math.MaxUint64, 1)
	if j != (Joules{Hi: 2, Lo: 1<<63 - 1}) {
		t.Fatalf("after adding 2^64-1 = %+v", j)
	}
	// 2^65 + 2^63 - 1 quanta: the bits below float64's 53 round away.
	if got, want := j.J(), (0x1p65+0x1p63)*Quantum; got != want {
		t.Errorf("J() = %v, want %v", got, want)
	}
	// A tie rounds to even unless a lower bit breaks it.
	tie := Joules{Hi: 1, Lo: 1 << 11}     // 2^64 + 2^11: halfway, rounds down to even
	above := Joules{Hi: 1, Lo: 1<<11 | 1} // one quantum above the tie rounds up
	if got, want := tie.J(), 0x1p64*Quantum; got != want {
		t.Errorf("tie J() = %v, want %v", got, want)
	}
	if got, want := above.J(), (0x1p64+0x1p12)*Quantum; got != want {
		t.Errorf("above-tie J() = %v, want %v", got, want)
	}
	if sum := tie.Plus(Joules{Lo: math.MaxUint64}); sum != (Joules{Hi: 2, Lo: 1<<11 - 1}) {
		t.Errorf("Plus carry = %+v", sum)
	}
}

func TestPowerNonNegativeProperty(t *testing.T) {
	s := chip.XGene3Spec()
	m := NewModel(s)
	f := func(vRaw uint16, fRaw uint16, act, stall float64) bool {
		v := s.ClampVoltage(chip.Millivolts(vRaw))
		fr := s.ClampFreq(chip.MHz(fRaw))
		act = math.Abs(math.Mod(act, 1))
		stall = math.Abs(math.Mod(stall, 1))
		b := m.Power(fullLoadState(s, v, fr, act, stall))
		return b.CoreDynamic >= 0 && b.PMDUncore > 0 && b.L3Fabric > 0 && b.Leakage > 0 && b.Total() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
