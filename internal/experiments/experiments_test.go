package experiments

import (
	"context"
	"io"
	"strings"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/sim"
	"avfs/internal/workload"
)

func TestSafeVminForMatchesTableII(t *testing.T) {
	s := chip.XGene3Spec()
	cases := []struct {
		f       chip.MHz
		place   sim.Placement
		threads int
		want    chip.Millivolts // Table II value + guard
	}{
		{3000, sim.Clustered, 32, 830 + GuardMV},
		{3000, sim.Spreaded, 16, 830 + GuardMV},
		{3000, sim.Clustered, 16, 810 + GuardMV},
		{3000, sim.Spreaded, 8, 810 + GuardMV},
		{3000, sim.Clustered, 8, 800 + GuardMV},
		{3000, sim.Clustered, 4, 780 + GuardMV},
		{1500, sim.Clustered, 32, 820 + GuardMV},
		{1500, sim.Clustered, 4, 770 + GuardMV},
	}
	for _, tc := range cases {
		if got := SafeVminFor(s, tc.f, tc.place, tc.threads); got != tc.want {
			t.Errorf("SafeVminFor(%v, %v, %dT) = %v, want %v", tc.f, tc.place, tc.threads, got, tc.want)
		}
	}
}

func TestMeasureBasics(t *testing.T) {
	s := chip.XGene3Spec()
	res := MustMeasure(RunSpec{
		Chip: s, Bench: workload.MustByName("namd"), Threads: 1,
		Placement: sim.Clustered, Freq: s.MaxFreq,
	})
	if res.Runtime <= 0 || res.EnergyJ <= 0 || res.AvgPowerW <= 0 {
		t.Fatalf("degenerate measurement: %+v", res)
	}
	if res.AppliedMV != s.NominalMV {
		t.Errorf("default voltage = %v, want nominal", res.AppliedMV)
	}
	if res.Instances != 1 {
		t.Errorf("instances = %d", res.Instances)
	}
}

func TestMeasureNormalizesMultiCopyEnergy(t *testing.T) {
	// Sec. II-B: energy of N single-threaded copies is divided by N, so
	// the per-instance energy must be of the same order as one copy.
	s := chip.XGene2Spec()
	one := MustMeasure(RunSpec{
		Chip: s, Bench: workload.MustByName("namd"), Threads: 1,
		Placement: sim.Clustered, Freq: s.MaxFreq,
	})
	four := MustMeasure(RunSpec{
		Chip: s, Bench: workload.MustByName("namd"), Threads: 4,
		Placement: sim.Spreaded, Freq: s.MaxFreq,
	})
	if four.Instances != 4 {
		t.Fatalf("instances = %d", four.Instances)
	}
	ratio := four.EnergyJ / one.EnergyJ
	if ratio > 1.05 {
		t.Errorf("normalized per-instance energy ratio %.2f; sharing the chip must not cost 4x", ratio)
	}
	// Sharing fixed costs across 4 copies makes each cheaper.
	if ratio > 0.95 {
		t.Errorf("ratio %.2f: amortization of uncore power missing", ratio)
	}
}

func TestMeasureAtSafeVmin(t *testing.T) {
	s := chip.XGene3Spec()
	res := MustMeasure(RunSpec{
		Chip: s, Bench: workload.MustByName("CG"), Threads: 32,
		Placement: sim.Clustered, Freq: s.MaxFreq, Voltage: VoltageSafeVmin,
	})
	if res.AppliedMV != 835 {
		t.Errorf("applied voltage %v, want 835 (Table II 830 + guard)", res.AppliedMV)
	}
	nominal := MustMeasure(RunSpec{
		Chip: s, Bench: workload.MustByName("CG"), Threads: 32,
		Placement: sim.Clustered, Freq: s.MaxFreq,
	})
	if res.EnergyJ >= nominal.EnergyJ {
		t.Error("undervolted run must consume less energy")
	}
	if res.Runtime != nominal.Runtime {
		t.Error("undervolting must not change performance")
	}
}

func TestMeasureRejectsBadSpec(t *testing.T) {
	s := chip.XGene2Spec()
	if _, err := Measure(RunSpec{
		Chip: s, Bench: workload.MustByName("CG"), Threads: 99,
		Placement: sim.Clustered, Freq: s.MaxFreq,
	}); err == nil {
		t.Error("oversubscription must error")
	}
}

func TestThreadOptions(t *testing.T) {
	got := ThreadOptions(chip.XGene3Spec())
	if len(got) != 3 || got[0] != 32 || got[1] != 16 || got[2] != 8 {
		t.Errorf("X-Gene 3 thread options = %v, want [32 16 8]", got)
	}
	got2 := ThreadOptions(chip.XGene2Spec())
	if len(got2) != 3 || got2[0] != 8 || got2[1] != 4 || got2[2] != 2 {
		t.Errorf("X-Gene 2 thread options = %v, want [8 4 2]", got2)
	}
}

func TestFiveBenchmarks(t *testing.T) {
	bs := FiveBenchmarks()
	if len(bs) != 5 {
		t.Fatal("want 5 benchmarks")
	}
	if bs[0].Name != "namd" || bs[4].Name != "FT" {
		t.Errorf("order = %v..%v, want namd..FT", bs[0].Name, bs[4].Name)
	}
}

// --- Figure 3 ----------------------------------------------------------

func TestFigure3Acceptance(t *testing.T) {
	r, err := Figure3Context(context.Background(), Campaign{}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Configs) == 0 {
		t.Fatal("no configs")
	}
	// Panels: X-Gene 2 has 2 thread options × 3 freqs, X-Gene 3 has 3 × 2.
	if len(r.Configs) != 2*3+3*2 {
		t.Fatalf("%d panels, want 12", len(r.Configs))
	}
	for _, c := range r.Configs {
		if len(c.Entries) != 25 {
			t.Fatalf("panel %v/%dT has %d entries", c.Freq, c.Threads, len(c.Entries))
		}
		// Multicore workload spread collapses (paper: <=10 mV; grant one
		// characterization step of slack).
		if c.Threads >= 4 && c.SpreadMV() > 10+10 {
			t.Errorf("%s %dT @%v: workload spread %dmV too wide",
				c.Chip.Name, c.Threads, c.Freq, c.SpreadMV())
		}
	}
	// Vmin ordering across frequencies on X-Gene 2 (same threads):
	// 0.9 GHz < 1.2 GHz < 2.4 GHz.
	mean := func(freq chip.MHz, threads int) float64 {
		for _, c := range r.Configs {
			if c.Chip.Model == chip.XGene2 && c.Freq == freq && c.Threads == threads {
				var s float64
				for _, e := range c.Entries {
					s += float64(e.SafeVmin)
				}
				return s / float64(len(c.Entries))
			}
		}
		t.Fatalf("panel %v/%d missing", freq, threads)
		return 0
	}
	if !(mean(900, 8) < mean(1200, 8) && mean(1200, 8) < mean(2400, 8)) {
		t.Error("X-Gene 2 frequency ordering of Vmin violated")
	}
	var buf strings.Builder
	r.Render(&buf)
	if !strings.Contains(buf.String(), "X-Gene 2") {
		t.Error("render output incomplete")
	}
}

// --- Figure 4 ----------------------------------------------------------

func TestFigure4Acceptance(t *testing.T) {
	r, err := Figure4Context(context.Background(), Campaign{}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SingleCore) != 25*8 || len(r.TwoCore) != 25*4 {
		t.Fatalf("sweep sizes %d/%d", len(r.SingleCore), len(r.TwoCore))
	}
	// Paper: up to 40 mV workload and 30 mV core-to-core variation
	// (grant a characterization step).
	if v := r.WorkloadVariationMV(); v < 25 || v > 50 {
		t.Errorf("workload variation %dmV, want ~40mV", v)
	}
	if v := r.CoreVariationMV(); v < 15 || v > 40 {
		t.Errorf("core-to-core variation %dmV, want ~30mV", v)
	}
	// PMD2 must be the most robust (lowest Vmin) — Fig. 4's pattern.
	best := map[string]chip.Millivolts{}
	for _, c := range r.TwoCore {
		if v, ok := best[c.Target]; !ok || c.SafeVmin < v {
			best[c.Target] = c.SafeVmin
		}
	}
	for target, v := range best {
		if target != "PMD2" && v < best["PMD2"] {
			t.Errorf("%s (%v) more robust than PMD2 (%v)", target, v, best["PMD2"])
		}
	}
	r.Render(io.Discard)
}

// --- Figure 5 ----------------------------------------------------------

func TestFigure5Acceptance(t *testing.T) {
	r, err := Figure5Context(context.Background(), Campaign{}, 60)
	if err != nil {
		t.Fatal(err)
	}
	find := func(label string) Fig5Line {
		for _, l := range r.Lines {
			if l.Label == label {
				return l
			}
		}
		t.Fatalf("line %q missing (have %d lines)", label, len(r.Lines))
		return Fig5Line{}
	}
	full := find("X-Gene 3 32T @ 3000MHz")
	spread := find("X-Gene 3 16T(spreaded) @ 3000MHz")
	clust := find("X-Gene 3 16T(clustered) @ 3000MHz")
	// Same droop class → virtually identical safe points.
	if d := full.SafeVmin() - spread.SafeVmin(); d < -10 || d > 10 {
		t.Errorf("32T and 16T(spreaded) safe points differ by %dmV", d)
	}
	// Clustered must be strictly better.
	if clust.SafeVmin() >= full.SafeVmin() {
		t.Errorf("16T(clustered) safe %v not below 32T %v", clust.SafeVmin(), full.SafeVmin())
	}
	// pfail curves are cumulative: non-decreasing as voltage descends.
	for _, l := range r.Lines {
		prev := -1.0
		for i, p := range l.PFail {
			if p+0.15 < prev {
				t.Errorf("%s: pfail drops at %v", l.Label, l.Voltage[i])
			}
			if p > prev {
				prev = p
			}
		}
	}
	r.Render(io.Discard)
}

// --- Figures 6-12 ------------------------------------------------------

func TestFigure6Acceptance(t *testing.T) {
	r := Figure6(200_000_000)
	if len(r.Windows) != 2 {
		t.Fatal("want 2 magnitude windows")
	}
	deep := r.Windows[0] // [55,65)
	mid := r.Windows[1]  // [45,55)
	byLabel := func(w Fig6Window, label string) []float64 {
		for _, c := range w.Configs {
			if c.Label == label {
				return c.PerBench
			}
		}
		t.Fatalf("config %q missing", label)
		return nil
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Fig. 6 left: 32T and 16T(spreaded) populate [55,65); 16T(clustered)
	// nearly zero.
	if mean(byLabel(deep, "32T")) < 10 || mean(byLabel(deep, "16T(spreaded)")) < 10 {
		t.Error("16-PMD configs must populate the deep window")
	}
	if mean(byLabel(deep, "16T(clustered)")) > mean(byLabel(deep, "32T"))*0.05 {
		t.Error("16T(clustered) must be near-zero in the deep window")
	}
	// Fig. 6 right: 16T(clustered) and 8T(spreaded) populate [45,55);
	// 8T(clustered) nearly zero.
	if mean(byLabel(mid, "16T(clustered)")) < 10 || mean(byLabel(mid, "8T(spreaded)")) < 10 {
		t.Error("8-PMD configs must populate the mid window")
	}
	if mean(byLabel(mid, "8T(clustered)")) > mean(byLabel(mid, "16T(clustered)"))*0.05 {
		t.Error("8T(clustered) must be near-zero in the mid window")
	}
	r.Render(io.Discard)
}

func TestFigure10Acceptance(t *testing.T) {
	r := Figure10()
	if r.Workload > 0.015 {
		t.Errorf("workload factor %.3f, paper ~1%%", r.Workload)
	}
	if r.CoreAllocation < 0.025 || r.CoreAllocation > 0.055 {
		t.Errorf("allocation factor %.3f, paper ~4%%", r.CoreAllocation)
	}
	if r.FreqSkipStep < 0.02 || r.FreqSkipStep > 0.045 {
		t.Errorf("skip factor %.3f, paper ~3%%", r.FreqSkipStep)
	}
	if r.ClockDivision < 0.10 || r.ClockDivision > 0.15 {
		t.Errorf("division factor %.3f, paper ~12%%", r.ClockDivision)
	}
	// Ordering: workload < skip < allocation < division.
	if !(r.Workload < r.FreqSkipStep && r.FreqSkipStep < r.CoreAllocation && r.CoreAllocation < r.ClockDivision) {
		t.Error("factor ordering violated")
	}
	r.Render(io.Discard)
}

func TestTableIIExact(t *testing.T) {
	r := TableII()
	if len(r.Rows) != 4 {
		t.Fatal("Table II has 4 rows")
	}
	wantFull := []chip.Millivolts{780, 800, 810, 830}
	wantHalf := []chip.Millivolts{770, 780, 790, 820}
	for i, row := range r.Rows {
		if row.VminFull != wantFull[i] || row.VminHalf != wantHalf[i] {
			t.Errorf("row %d: %v/%v, want %v/%v", i, row.VminFull, row.VminHalf, wantFull[i], wantHalf[i])
		}
	}
	var buf strings.Builder
	r.Render(&buf)
	if !strings.Contains(buf.String(), "[55mV, 65mV)") {
		t.Error("rendered table must show the droop bins")
	}
}

func TestTableIRender(t *testing.T) {
	var buf strings.Builder
	TableI().Render(&buf)
	for _, want := range []string{"X-Gene 2", "X-Gene 3", "980mV", "870mV", "32MB", "125 W"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFleetStudy(t *testing.T) {
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		r := FleetStudy(spec, 40, 3)
		if len(r.Rows) != 4 {
			t.Fatalf("%d rows", len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.MaxMV > row.Envelope {
				t.Errorf("%s %s: worst die %v above envelope %v — deployment not fleet-safe",
					spec.Name, row.Label, row.MaxMV, row.Envelope)
			}
			if !(row.MinMV <= row.MedianMV && row.MedianMV <= row.MaxMV) {
				t.Errorf("%s %s: distribution ordering broken", spec.Name, row.Label)
			}
			if row.ExtraHeadroomMV < 0 {
				t.Errorf("%s %s: negative per-die headroom", spec.Name, row.Label)
			}
		}
		// Single-core rows must show a wider fleet spread than max-thread
		// rows (static variation washes out as more PMDs participate...
		// actually the weakest-active-core rule means max-thread rows
		// collapse to near the envelope).
		single := r.Rows[0]
		full := r.Rows[2]
		if (single.MaxMV - single.MinMV) < (full.MaxMV - full.MinMV) {
			t.Errorf("%s: single-core fleet spread %d not wider than full-chip %d",
				spec.Name, single.MaxMV-single.MinMV, full.MaxMV-full.MinMV)
		}
		var buf strings.Builder
		r.Render(&buf)
		if !strings.Contains(buf.String(), "fleet-safe") {
			t.Error("render missing summary")
		}
	}
}
