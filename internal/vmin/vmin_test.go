package vmin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/workload"
)

func cores(n int) []chip.CoreID {
	out := make([]chip.CoreID, n)
	for i := range out {
		out[i] = chip.CoreID(i)
	}
	return out
}

// spreadCores allocates n cores one-per-PMD first (a local copy of the
// sim package's spreaded allocation — sim depends on vmin, so the test
// cannot import it).
func spreadCores(spec *chip.Spec, n int) []chip.CoreID {
	out := make([]chip.CoreID, 0, n)
	for i := 0; i < spec.PMDs() && len(out) < n; i++ {
		out = append(out, chip.CoreID(2*i))
	}
	for i := 0; i < spec.PMDs() && len(out) < n; i++ {
		out = append(out, chip.CoreID(2*i+1))
	}
	return out
}

func TestClassEnvelopeTableIIExact(t *testing.T) {
	// X-Gene 3 values are Table II of the paper verbatim.
	s := chip.XGene3Spec()
	cases := []struct {
		pmds int
		full chip.Millivolts
		half chip.Millivolts
	}{
		{1, 780, 770}, {2, 780, 770},
		{4, 800, 780},
		{8, 810, 790},
		{16, 830, 820},
	}
	for _, tc := range cases {
		if got := ClassEnvelope(s, clock.FullSpeed, tc.pmds); got != tc.full {
			t.Errorf("envelope(full, %d PMDs) = %v, want %v", tc.pmds, got, tc.full)
		}
		if got := ClassEnvelope(s, clock.HalfSpeed, tc.pmds); got != tc.half {
			t.Errorf("envelope(half, %d PMDs) = %v, want %v", tc.pmds, got, tc.half)
		}
	}
}

func TestEnvelopeMonotoneInPMDs(t *testing.T) {
	for _, s := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		for _, fc := range clock.Classes(s) {
			prev := chip.Millivolts(0)
			for n := 1; n <= s.PMDs(); n++ {
				v := ClassEnvelope(s, fc, n)
				if v < prev {
					t.Fatalf("%s %v: envelope decreased at %d PMDs", s.Name, fc, n)
				}
				prev = v
			}
		}
	}
}

func TestEnvelopeMonotoneInFreqClass(t *testing.T) {
	// Slower frequency classes must never require more voltage.
	for _, s := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		classes := clock.Classes(s)
		for n := 1; n <= s.PMDs(); n++ {
			for i := 1; i < len(classes); i++ {
				hi := ClassEnvelope(s, classes[i-1], n)
				lo := ClassEnvelope(s, classes[i], n)
				if lo > hi {
					t.Fatalf("%s: %v envelope %v exceeds %v envelope %v at %d PMDs",
						s.Name, classes[i], lo, classes[i-1], hi, n)
				}
			}
		}
	}
}

func TestXGene2PaperPercentages(t *testing.T) {
	// Fig. 10: core allocation ~4%, skipping step ~3%, division ~12% of
	// the 980 mV nominal.
	s := chip.XGene2Spec()
	nom := float64(s.NominalMV)
	alloc := float64(ClassEnvelope(s, clock.FullSpeed, 4)-ClassEnvelope(s, clock.FullSpeed, 1)) / nom
	if alloc < 0.025 || alloc > 0.055 {
		t.Errorf("core-allocation impact = %.1f%%, want ~4%%", 100*alloc)
	}
	skip := float64(ClassEnvelope(s, clock.FullSpeed, 4)-ClassEnvelope(s, clock.HalfSpeed, 4)) / nom
	if skip < 0.02 || skip > 0.045 {
		t.Errorf("skipping-step impact = %.1f%%, want ~3%%", 100*skip)
	}
	div := float64(ClassEnvelope(s, clock.FullSpeed, 4)-ClassEnvelope(s, clock.DividedLow, 4)) / nom
	if div < 0.10 || div > 0.145 {
		t.Errorf("clock-division impact = %.1f%%, want ~12%%", 100*div)
	}
}

func TestSafeVminNeverExceedsEnvelope(t *testing.T) {
	// The class envelope is the worst case over programs and cores, so
	// every concrete configuration must sit at or below it.
	for _, s := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		for _, fc := range clock.Classes(s) {
			for _, n := range []int{1, 2, s.Cores / 4, s.Cores / 2, s.Cores} {
				for _, b := range workload.CharacterizationSet() {
					cfg := &Config{Spec: s, FreqClass: fc, Cores: spreadCores(s, n), Bench: b}
					v := SafeVmin(cfg)
					env := ClassEnvelope(s, fc, cfg.UtilizedPMDs())
					if v > env {
						t.Fatalf("%s %v %dT %s: SafeVmin %v exceeds envelope %v",
							s.Name, fc, n, b.Name, v, env)
					}
				}
			}
		}
	}
}

func TestWorkloadVariationFadesWithThreads(t *testing.T) {
	// Fig. 3 vs Fig. 4: spread across benchmarks shrinks as threads grow.
	s := chip.XGene2Spec()
	spreadAt := func(n int) chip.Millivolts {
		var min, max chip.Millivolts
		for i, b := range workload.CharacterizationSet() {
			cfg := &Config{Spec: s, FreqClass: clock.FullSpeed, Cores: cores(n), Bench: b}
			v := SafeVmin(cfg)
			if i == 0 {
				min, max = v, v
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max - min
	}
	s1, s4, s8 := spreadAt(1), spreadAt(4), spreadAt(8)
	if !(s8 <= s4 && s4 <= s1) {
		t.Errorf("workload spread must shrink with threads: 1T=%d 4T=%d 8T=%d", s1, s4, s8)
	}
	if s1 < 30 || s1 > 45 {
		t.Errorf("single-core workload spread = %dmV, paper reports up to 40mV", s1)
	}
	if s8 > 10 {
		t.Errorf("8-thread workload spread = %dmV, paper reports <=10mV", s8)
	}
}

func TestCoreToCoreVariation(t *testing.T) {
	// Fig. 4: X-Gene 2 single-core core-to-core variation up to 30 mV,
	// with PMD2 the most robust.
	s := chip.XGene2Spec()
	b := workload.MustByName("milc")
	var vs []chip.Millivolts
	for c := 0; c < s.Cores; c++ {
		cfg := &Config{Spec: s, FreqClass: clock.FullSpeed, Cores: []chip.CoreID{chip.CoreID(c)}, Bench: b}
		vs = append(vs, SafeVmin(cfg))
	}
	min, max := vs[0], vs[0]
	minCore := 0
	for c, v := range vs {
		if v < min {
			min, minCore = v, c
		}
		if v > max {
			max = v
		}
	}
	if spread := max - min; spread < 20 || spread > 35 {
		t.Errorf("core-to-core spread = %dmV, paper reports up to 30mV", spread)
	}
	if pmd := s.PMDOf(chip.CoreID(minCore)); pmd != 2 {
		t.Errorf("most robust core is on PMD%d, paper shows PMD2", pmd)
	}
}

func TestPFailBoundaries(t *testing.T) {
	s := chip.XGene3Spec()
	cfg := &Config{Spec: s, FreqClass: clock.FullSpeed, Cores: cores(32), Bench: workload.MustByName("CG")}
	safe := SafeVmin(cfg)
	if p := PFail(cfg, safe); p != 0 {
		t.Errorf("pfail at the safe point = %v, want 0", p)
	}
	if p := PFail(cfg, safe+50); p != 0 {
		t.Errorf("pfail above the safe point = %v, want 0", p)
	}
	if p := PFail(cfg, safe-chip.Millivolts(pfailWindowMV)); p != 1 {
		t.Errorf("pfail at the window floor = %v, want 1", p)
	}
	prev := 0.0
	for d := chip.Millivolts(0); d <= chip.Millivolts(pfailWindowMV); d += 5 {
		p := PFail(cfg, safe-d)
		if p < prev {
			t.Fatalf("pfail not monotone at depth %v", d)
		}
		prev = p
	}
}

func TestPFailIdenticalForSameClassConfigs(t *testing.T) {
	// Fig. 5: max-threads and spreaded half-threads at the same frequency
	// share droop class 3, so their envelope curves coincide.
	s := chip.XGene3Spec()
	full := &Config{Spec: s, FreqClass: clock.FullSpeed, Cores: cores(32)}
	halfSpread := &Config{Spec: s, FreqClass: clock.FullSpeed, Cores: spreadCores(s, 16)}
	if a, b := SafeVmin(full), SafeVmin(halfSpread); a != b {
		t.Fatalf("32T and 16T(spreaded) envelopes differ: %v vs %v", a, b)
	}
	for d := chip.Millivolts(0); d < 50; d += 10 {
		v := SafeVmin(full) - d
		if PFail(full, v) != PFail(halfSpread, v) {
			t.Errorf("pfail differs at %v for same-class configs", v)
		}
	}
	// ...while clustered half-threads are strictly better.
	halfClust := &Config{Spec: s, FreqClass: clock.FullSpeed, Cores: cores(16)}
	if SafeVmin(halfClust) >= SafeVmin(full) {
		t.Error("16T(clustered) must have lower safe Vmin than 32T")
	}
}

func TestRunOnceFaultTaxonomy(t *testing.T) {
	s := chip.XGene2Spec()
	cfg := &Config{Spec: s, FreqClass: clock.FullSpeed, Cores: cores(8), Bench: workload.MustByName("lbm")}
	rng := rand.New(rand.NewSource(1))
	safe := SafeVmin(cfg)

	// At the safe point: always clean.
	for i := 0; i < 200; i++ {
		if out := RunOnce(cfg, safe, rng); out.Fault != None {
			t.Fatalf("run failed at the safe point: %v", out.Fault)
		}
	}
	// Deep below: always failing, with a crash-heavy mix.
	counts := map[FaultKind]int{}
	for i := 0; i < 500; i++ {
		out := RunOnce(cfg, safe-60, rng)
		counts[out.Fault]++
	}
	if counts[None] != 0 {
		t.Errorf("%d clean runs 60mV below the safe point", counts[None])
	}
	if counts[Crash] <= counts[SDC] {
		t.Errorf("deep undervolt should be crash-heavy: crash=%d sdc=%d", counts[Crash], counts[SDC])
	}
	// Just below: SDC-heavy.
	counts = map[FaultKind]int{}
	for i := 0; i < 2000; i++ {
		out := RunOnce(cfg, safe-10, rng)
		counts[out.Fault]++
	}
	if counts[SDC] <= counts[Crash] {
		t.Errorf("shallow undervolt should be SDC-heavy: sdc=%d crash=%d", counts[SDC], counts[Crash])
	}
}

func TestFaultMixSumsToOne(t *testing.T) {
	f := func(raw uint8) bool {
		d := float64(raw % 50)
		sdc, timeout, hang, crash := faultMix(d)
		sum := sdc + timeout + hang + crash
		return sum > 0.999 && sum < 1.001 && sdc >= 0 && timeout >= 0 && hang >= 0 && crash >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfigValidate(t *testing.T) {
	s := chip.XGene2Spec()
	good := &Config{Spec: s, FreqClass: clock.FullSpeed, Cores: cores(2)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []*Config{
		{Spec: nil, Cores: cores(1)},
		{Spec: s, FreqClass: clock.FullSpeed, Cores: nil},
		{Spec: s, FreqClass: clock.FullSpeed, Cores: []chip.CoreID{99}},
		{Spec: s, FreqClass: clock.FullSpeed, Cores: []chip.CoreID{0, 0}},
		{Spec: chip.XGene3Spec(), FreqClass: clock.DividedLow, Cores: cores(2)},
		{Spec: s, FreqClass: clock.DividedLow + 1, Cores: cores(2)},
		{Spec: s, FreqClass: -1, Cores: cores(2)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestClassEnvelopeMissingClassPanics: a frequency class the chip lacks
// has no envelope, whether the class exists on the other chip or not at
// all.
func TestClassEnvelopeMissingClassPanics(t *testing.T) {
	for _, tc := range []struct {
		spec *chip.Spec
		fc   clock.FreqClass
	}{
		{chip.XGene3Spec(), clock.DividedLow},
		{chip.XGene2Spec(), clock.DividedLow + 1},
		{chip.XGene2Spec(), -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ClassEnvelope(%s, %v) did not panic", tc.spec.Name, tc.fc)
				}
			}()
			ClassEnvelope(tc.spec, tc.fc, 1)
		}()
	}
}

func TestUtilizedPMDs(t *testing.T) {
	s := chip.XGene3Spec()
	cfg := &Config{Spec: s, FreqClass: clock.FullSpeed, Cores: []chip.CoreID{0, 1, 2, 4, 31}}
	if got := cfg.UtilizedPMDs(); got != 4 {
		t.Errorf("UtilizedPMDs = %d, want 4 (PMDs 0,1,2,15)", got)
	}
}

func TestSafeVminProperty(t *testing.T) {
	// For any subset of cores and any benchmark: MinSafeMV <= SafeVmin <=
	// class envelope, and adding cores never lowers it below a
	// single-core run on the same first core... (monotone in droop class).
	s := chip.XGene3Spec()
	bs := workload.CharacterizationSet()
	f := func(nRaw, bRaw uint8, fcRaw bool) bool {
		n := 1 + int(nRaw)%s.Cores
		fc := clock.FullSpeed
		if fcRaw {
			fc = clock.HalfSpeed
		}
		b := bs[int(bRaw)%len(bs)]
		cfg := &Config{Spec: s, FreqClass: fc, Cores: spreadCores(s, n), Bench: b}
		v := SafeVmin(cfg)
		return v >= s.MinSafeMV && v <= ClassEnvelope(s, fc, cfg.UtilizedPMDs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGuardMargin(t *testing.T) {
	s := chip.XGene3Spec()
	env := ClassEnvelope(s, clock.FullSpeed, 4)
	if m := GuardMargin(s, clock.FullSpeed, 4, env+5); m != 5 {
		t.Errorf("margin above envelope = %v, want 5", m)
	}
	if m := GuardMargin(s, clock.FullSpeed, 4, env); m != 0 {
		t.Errorf("margin at envelope = %v, want 0", m)
	}
	if m := GuardMargin(s, clock.FullSpeed, 4, env-10); m != -10 {
		t.Errorf("margin below envelope = %v, want -10 (an emergency)", m)
	}
}
