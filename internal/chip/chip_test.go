package chip

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// TestUnitStringsMatchFmt pins the strconv rendering of Millivolts and MHz
// to the %d form, including zero, negatives and the int extremes.
func TestUnitStringsMatchFmt(t *testing.T) {
	for _, v := range []int{0, 1, -1, 9, 10, 99, 100, 870, 980, 1500, 3000, -42, math.MaxInt, math.MinInt} {
		if got, want := Millivolts(v).String(), fmt.Sprintf("%dmV", v); got != want {
			t.Errorf("Millivolts(%d) = %q, want %q", v, got, want)
		}
		if got, want := MHz(v).String(), fmt.Sprintf("%dMHz", v); got != want {
			t.Errorf("MHz(%d) = %q, want %q", v, got, want)
		}
	}
}

// TestParseModel pins every wire alias of the two chips, the default and
// the round trip through Name.
func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Model
		ok   bool
	}{
		{"", XGene3, true},
		{"xgene3", XGene3, true},
		{" X-Gene3 ", XGene3, true},
		{"xgene-3", XGene3, true},
		{"xgene2", XGene2, true},
		{"XGENE2", XGene2, true},
		{"x-gene2", XGene2, true},
		{"xgene-2", XGene2, true},
		{"xgene", 0, false},
		{"x-gene 2", 0, false},
		{"both", 0, false},
	} {
		got, err := ParseModel(tc.in)
		if !tc.ok {
			if !errors.Is(err, ErrUnknownModel) {
				t.Errorf("ParseModel(%q) = %v, %v; want ErrUnknownModel", tc.in, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, m := range []Model{XGene2, XGene3} {
		if got, err := ParseModel(m.Name()); err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.Name(), got, err)
		}
	}
}

func TestSpecTopology(t *testing.T) {
	for _, tc := range []struct {
		spec  *Spec
		cores int
		pmds  int
	}{
		{XGene2Spec(), 8, 4},
		{XGene3Spec(), 32, 16},
	} {
		if tc.spec.Cores != tc.cores {
			t.Errorf("%s: cores = %d, want %d", tc.spec.Name, tc.spec.Cores, tc.cores)
		}
		if tc.spec.PMDs() != tc.pmds {
			t.Errorf("%s: PMDs = %d, want %d", tc.spec.Name, tc.spec.PMDs(), tc.pmds)
		}
	}
}

func TestTableIParameters(t *testing.T) {
	x2, x3 := XGene2Spec(), XGene3Spec()
	if x2.NominalMV != 980 || x3.NominalMV != 870 {
		t.Errorf("nominal voltages = %v/%v, want 980/870", x2.NominalMV, x3.NominalMV)
	}
	if x2.MaxFreq != 2400 || x3.MaxFreq != 3000 {
		t.Errorf("max frequencies = %v/%v, want 2400/3000", x2.MaxFreq, x3.MaxFreq)
	}
	if x2.L3 != 8<<20 || x3.L3 != 32<<20 {
		t.Errorf("L3 sizes = %d/%d, want 8MB/32MB", x2.L3, x3.L3)
	}
	if x2.TDPWatts != 35 || x3.TDPWatts != 125 {
		t.Errorf("TDP = %v/%v, want 35/125", x2.TDPWatts, x3.TDPWatts)
	}
	if x2.Process != Bulk28nm || x3.Process != FinFET16nm {
		t.Errorf("process nodes wrong: %v/%v", x2.Process, x3.Process)
	}
}

func TestPMDMapping(t *testing.T) {
	s := XGene3Spec()
	for c := 0; c < s.Cores; c++ {
		p := s.PMDOf(CoreID(c))
		c0, c1 := s.CoresOf(p)
		if CoreID(c) != c0 && CoreID(c) != c1 {
			t.Fatalf("core %d not in its own PMD %d (%d,%d)", c, p, c0, c1)
		}
	}
	if s.PMDOf(0) != s.PMDOf(1) {
		t.Error("cores 0 and 1 must share PMD0")
	}
	if s.PMDOf(1) == s.PMDOf(2) {
		t.Error("cores 1 and 2 must be in different PMDs")
	}
}

func TestFreqSteps(t *testing.T) {
	for _, s := range []*Spec{XGene2Spec(), XGene3Spec()} {
		steps := s.FreqSteps()
		if len(steps) != 8 {
			t.Errorf("%s: %d frequency steps, want 8 (1/8 of max)", s.Name, len(steps))
		}
		if steps[len(steps)-1] != s.MaxFreq || steps[0] != s.MinFreq {
			t.Errorf("%s: steps span %v..%v, want %v..%v",
				s.Name, steps[0], steps[len(steps)-1], s.MinFreq, s.MaxFreq)
		}
		for i := 1; i < len(steps); i++ {
			if steps[i]-steps[i-1] != s.FreqStep {
				t.Errorf("%s: non-uniform step %v", s.Name, steps[i]-steps[i-1])
			}
		}
	}
}

func TestClampFreqProperties(t *testing.T) {
	s := XGene3Spec()
	f := func(raw int16) bool {
		g := s.ClampFreq(MHz(raw))
		if g < s.MinFreq || g > s.MaxFreq {
			return false
		}
		// Idempotent and on-grid.
		if s.ClampFreq(g) != g {
			return false
		}
		return (s.MaxFreq-g)%s.FreqStep == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampFreqRoundsDown(t *testing.T) {
	s := XGene3Spec() // grid: 375,750,...,3000
	if got := s.ClampFreq(2999); got != 2625 {
		t.Errorf("ClampFreq(2999) = %v, want 2625 (round down)", got)
	}
	if got := s.ClampFreq(3000); got != 3000 {
		t.Errorf("ClampFreq(3000) = %v", got)
	}
	if got := s.ClampFreq(1); got != s.MinFreq {
		t.Errorf("ClampFreq(1) = %v, want min", got)
	}
}

func TestClampVoltageProperties(t *testing.T) {
	s := XGene2Spec()
	f := func(raw int16) bool {
		v := s.ClampVoltage(Millivolts(raw))
		if v < s.MinSafeMV || v > s.NominalMV {
			return false
		}
		if s.ClampVoltage(v) != v {
			return false
		}
		return (v-s.MinSafeMV)%s.VoltageStep == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChipDefaults(t *testing.T) {
	c := New(XGene3Spec())
	if c.Voltage() != c.Spec.NominalMV {
		t.Errorf("power-on voltage %v, want nominal", c.Voltage())
	}
	for p := 0; p < c.Spec.PMDs(); p++ {
		if c.PMDFreq(PMDID(p)) != c.Spec.MaxFreq {
			t.Errorf("PMD%d power-on frequency %v, want max", p, c.PMDFreq(PMDID(p)))
		}
	}
}

func TestSetVoltageAndFreq(t *testing.T) {
	c := New(XGene3Spec())
	if got := c.SetVoltage(820); got != 820 || c.Voltage() != 820 {
		t.Errorf("SetVoltage(820) = %v", got)
	}
	if got := c.SetVoltage(5000); got != c.Spec.NominalMV {
		t.Errorf("over-voltage clamps to nominal, got %v", got)
	}
	if got := c.SetPMDFreq(3, 1500); got != 1500 || c.PMDFreq(3) != 1500 {
		t.Errorf("SetPMDFreq = %v", got)
	}
	if got := c.CoreFreq(6); got != 1500 {
		t.Errorf("CoreFreq(6) = %v, want PMD3's 1500", got)
	}
	if got := c.CoreFreq(8); got != c.Spec.MaxFreq {
		t.Errorf("CoreFreq(8) = %v, want max", got)
	}
}

func TestSetAllFreq(t *testing.T) {
	c := New(XGene2Spec())
	c.SetAllFreq(900)
	for p := 0; p < c.Spec.PMDs(); p++ {
		if c.PMDFreq(PMDID(p)) != 900 {
			t.Fatalf("PMD%d = %v after SetAllFreq(900)", p, c.PMDFreq(PMDID(p)))
		}
	}
}

func TestMaxPMDFreq(t *testing.T) {
	c := New(XGene3Spec())
	c.SetAllFreq(1500)
	c.SetPMDFreq(7, 3000)
	if got := c.MaxPMDFreq(nil); got != 3000 {
		t.Errorf("MaxPMDFreq(all) = %v, want 3000", got)
	}
	if got := c.MaxPMDFreq([]PMDID{0, 1}); got != 1500 {
		t.Errorf("MaxPMDFreq(0,1) = %v, want 1500", got)
	}
	if got := c.MaxPMDFreq([]PMDID{7}); got != 3000 {
		t.Errorf("MaxPMDFreq(7) = %v, want 3000", got)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	c := New(XGene2Spec())
	snap := c.Snapshot()
	c.SetPMDFreq(0, 300)
	c.SetVoltage(800)
	if snap.PMDFreq[0] != c.Spec.MaxFreq || snap.Voltage != c.Spec.NominalMV {
		t.Error("snapshot mutated by later chip changes")
	}
}

func TestInvalidPMDPanics(t *testing.T) {
	c := New(XGene2Spec())
	defer func() {
		if recover() == nil {
			t.Error("PMDFreq(99) should panic")
		}
	}()
	c.PMDFreq(99)
}

func TestHalfFreq(t *testing.T) {
	if XGene2Spec().HalfFreq() != 1200 || XGene3Spec().HalfFreq() != 1500 {
		t.Error("half frequencies must be 1200/1500")
	}
}

func TestUnitStrings(t *testing.T) {
	if Millivolts(870).String() != "870mV" {
		t.Error("Millivolts.String")
	}
	if MHz(2400).String() != "2400MHz" {
		t.Error("MHz.String")
	}
	if MHz(3000).GHz() != 3.0 || MHz(3000).Hz() != 3e9 {
		t.Error("MHz conversions")
	}
	if Millivolts(980).Volts() != 0.98 {
		t.Error("Millivolts.Volts")
	}
}

func TestGenerationCountsOnlyRealChanges(t *testing.T) {
	c := New(XGene3Spec())
	g0 := c.Generation()
	// A no-op programming (same value lands after clamping) must not
	// advance the generation — consumers key caches on it, and voltage
	// re-settles to the same level are common in the daemon's protocol.
	c.SetVoltage(c.Voltage())
	c.SetPMDFreq(0, c.PMDFreq(0))
	c.SetAllFreq(c.PMDFreq(0))
	if c.Generation() != g0 {
		t.Errorf("no-op programmings advanced generation %d -> %d", g0, c.Generation())
	}
	c.SetVoltage(c.Spec.NominalMV - 50)
	if c.Generation() != g0+1 {
		t.Errorf("voltage change advanced generation to %d, want %d", c.Generation(), g0+1)
	}
	c.SetPMDFreq(1, c.Spec.HalfFreq())
	if c.Generation() != g0+2 {
		t.Errorf("frequency change advanced generation to %d, want %d", c.Generation(), g0+2)
	}
	// SetAllFreq counts as one electrical change no matter how many PMDs
	// move.
	c.SetAllFreq(c.Spec.MaxFreq)
	if c.Generation() != g0+3 {
		t.Errorf("SetAllFreq advanced generation to %d, want %d", c.Generation(), g0+3)
	}
	// ...and is still a no-op when every PMD already sits on the target.
	c.SetAllFreq(c.Spec.MaxFreq)
	if c.Generation() != g0+3 {
		t.Errorf("no-op SetAllFreq advanced generation to %d", c.Generation())
	}
}
