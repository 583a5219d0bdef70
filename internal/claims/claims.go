// Package claims encodes every quantitative statement of the paper as a
// machine-checkable claim and verifies the reproduction against it. The
// output is the repository's credibility dashboard: claim by claim, the
// paper's value, the measured value, and a verdict.
//
// Claims check *shape* — orderings, bands, crossovers — because the
// substrate is a calibrated simulator (DESIGN.md §1); exact-value claims
// are limited to model inputs the paper states outright (Table I, Table
// II).
package claims

import (
	"context"
	"fmt"
	"io"

	"avfs/internal/ascii"
	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/experiments"
	"avfs/internal/sim"
	"avfs/internal/vmin"
	"avfs/internal/wlgen"
	"avfs/internal/workload"
)

// Claim is one verifiable statement from the paper.
type Claim struct {
	// ID is a short stable identifier, e.g. "fig7-swing".
	ID string
	// Source is the paper location, e.g. "Sec. III-B", "Table II".
	Source string
	// Statement paraphrases the claim.
	Statement string
	// Paper is the value the paper reports.
	Paper string
	// Check measures the reproduction and returns the measured value
	// and the verdict.
	Check func(f Fidelity) (measured string, ok bool)
}

// Fidelity trades runtime for precision in the slower checks.
type Fidelity struct {
	// Trials per characterization voltage level (0 = the paper's 1000).
	Trials int
	// EvalSeconds is the system-evaluation workload length.
	EvalSeconds float64
	// Seed drives the workload generator.
	Seed int64
}

// Fast returns settings that verify every claim in well under a minute.
func Fast() Fidelity { return Fidelity{Trials: 100, EvalSeconds: 600, Seed: 42} }

// Result is one verified claim.
type Result struct {
	Claim    Claim
	Measured string
	OK       bool
}

// Verify checks every claim and returns the results in claim order.
func Verify(f Fidelity) []Result {
	out := make([]Result, 0, len(all))
	for _, c := range all {
		measured, ok := c.Check(f)
		out = append(out, Result{Claim: c, Measured: measured, OK: ok})
	}
	return out
}

// Render writes the dashboard and returns the failed-claim count.
func Render(w io.Writer, results []Result) int {
	rows := make([][]string, 0, len(results))
	failed := 0
	for _, r := range results {
		verdict := "PASS"
		if !r.OK {
			verdict = "FAIL"
			failed++
		}
		rows = append(rows, []string{r.Claim.ID, r.Claim.Source, r.Claim.Paper, r.Measured, verdict})
	}
	ascii.Table(w, []string{"claim", "source", "paper", "measured", "verdict"}, rows)
	fmt.Fprintf(w, "%d/%d claims reproduced\n", len(results)-failed, len(results))
	return failed
}

// pct formats a fraction as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// all enumerates the paper's claims in reading order.
var all = []Claim{
	{
		ID: "table1-topology", Source: "Table I",
		Statement: "X-Gene 2 has 8 cores at 2.4 GHz / 8MB L3; X-Gene 3 has 32 cores at 3 GHz / 32MB L3",
		Paper:     "8c/2.4GHz/8MB; 32c/3GHz/32MB",
		Check: func(Fidelity) (string, bool) {
			x2, x3 := chip.XGene2Spec(), chip.XGene3Spec()
			got := fmt.Sprintf("%dc/%v/%dMB; %dc/%v/%dMB",
				x2.Cores, x2.MaxFreq, x2.L3>>20, x3.Cores, x3.MaxFreq, x3.L3>>20)
			ok := x2.Cores == 8 && x2.MaxFreq == 2400 && x2.L3 == 8<<20 &&
				x3.Cores == 32 && x3.MaxFreq == 3000 && x3.L3 == 32<<20
			return got, ok
		},
	},
	{
		ID: "table1-electrical", Source: "Table I / Sec. II-A",
		Statement: "nominal voltages 980/870 mV; frequency in 1/8 steps of max",
		Paper:     "980mV, 870mV, 1/8 steps",
		Check: func(Fidelity) (string, bool) {
			x2, x3 := chip.XGene2Spec(), chip.XGene3Spec()
			ok := x2.NominalMV == 980 && x3.NominalMV == 870 &&
				x2.FreqStep*8 == x2.MaxFreq && x3.FreqStep*8 == x3.MaxFreq
			return fmt.Sprintf("%v, %v, max/step=%d", x2.NominalMV, x3.NominalMV, x3.MaxFreq/x3.FreqStep), ok
		},
	},
	{
		ID: "table2-vmin", Source: "Table II",
		Statement: "X-Gene 3 safe Vmin per droop class: 780/800/810/830 @3GHz, 770/780/790/820 @1.5GHz",
		Paper:     "8 table values",
		Check: func(Fidelity) (string, bool) {
			s := chip.XGene3Spec()
			wantF := []chip.Millivolts{780, 800, 810, 830}
			wantH := []chip.Millivolts{770, 780, 790, 820}
			pmds := []int{2, 4, 8, 16}
			for i, n := range pmds {
				if vmin.ClassEnvelope(s, clock.FullSpeed, n) != wantF[i] ||
					vmin.ClassEnvelope(s, clock.HalfSpeed, n) != wantH[i] {
					return "mismatch", false
				}
			}
			return "8/8 exact", true
		},
	},
	{
		ID: "fig3-spread", Source: "Fig. 3 / Sec. III-A",
		Statement: "multicore safe Vmin is virtually workload-independent (max spread ~10 mV)",
		Paper:     "<=10mV",
		Check: func(f Fidelity) (string, bool) {
			r, err := experiments.Figure3Context(context.Background(), experiments.Campaign{}, f.Trials)
			if err != nil {
				return err.Error(), false
			}
			var worst chip.Millivolts
			for _, c := range r.Configs {
				if c.Threads >= 4 && c.SpreadMV() > worst {
					worst = c.SpreadMV()
				}
			}
			// One 10 mV characterization step of slack.
			return fmt.Sprintf("%dmV", worst), worst <= 20
		},
	},
	{
		ID: "fig4-variation", Source: "Fig. 4 / Sec. III-A",
		Statement: "single-/two-core X-Gene 2 runs show up to ~40 mV workload and ~30 mV core-to-core variation",
		Paper:     "40mV / 30mV",
		Check: func(f Fidelity) (string, bool) {
			r, err := experiments.Figure4Context(context.Background(), experiments.Campaign{}, f.Trials)
			if err != nil {
				return err.Error(), false
			}
			wl, core := r.WorkloadVariationMV(), r.CoreVariationMV()
			ok := wl >= 25 && wl <= 50 && core >= 15 && core <= 40
			return fmt.Sprintf("%dmV / %dmV", wl, core), ok
		},
	},
	{
		ID: "fig5-class-pfail", Source: "Fig. 5 / Sec. III-B",
		Statement: "configurations sharing frequency and allocation class have the same safe Vmin and pfail curve; clustered half-threads are strictly better than max threads",
		Paper:     "identical curves; clustered better",
		Check: func(f Fidelity) (string, bool) {
			s := chip.XGene3Spec()
			full := &vmin.Config{Spec: s, FreqClass: clock.FullSpeed, Cores: clustered(s, 32)}
			spread := &vmin.Config{Spec: s, FreqClass: clock.FullSpeed, Cores: spreaded(s, 16)}
			clust := &vmin.Config{Spec: s, FreqClass: clock.FullSpeed, Cores: clustered(s, 16)}
			a, b, c := vmin.SafeVmin(full), vmin.SafeVmin(spread), vmin.SafeVmin(clust)
			ok := a == b && c < a
			return fmt.Sprintf("32T=%v 16Tsp=%v 16Tcl=%v", a, b, c), ok
		},
	},
	{
		ID: "sec3b-freq-steps", Source: "Sec. III-B",
		Statement: "half speed lowers Vmin ~3% further; 0.9 GHz (clock division) lowers it ~12-15% on X-Gene 2",
		Paper:     "~3% / ~12-15%",
		Check: func(Fidelity) (string, bool) {
			s := chip.XGene2Spec()
			nom := float64(s.NominalMV)
			half := float64(vmin.ClassEnvelope(s, clock.FullSpeed, 4)-vmin.ClassEnvelope(s, clock.HalfSpeed, 4)) / nom
			div := float64(vmin.ClassEnvelope(s, clock.FullSpeed, 4)-vmin.ClassEnvelope(s, clock.DividedLow, 4)) / nom
			ok := half > 0.02 && half < 0.045 && div > 0.10 && div < 0.15
			return fmt.Sprintf("%s / %s", pct(half), pct(div)), ok
		},
	},
	{
		ID: "sec3b-allocation", Source: "Sec. III-B / Fig. 10",
		Statement: "a different core allocation at the same thread count lowers Vmin ~4%",
		Paper:     "~4%",
		Check: func(Fidelity) (string, bool) {
			r := experiments.Figure10()
			return pct(r.CoreAllocation), r.CoreAllocation > 0.025 && r.CoreAllocation < 0.055
		},
	},
	{
		ID: "fig10-ordering", Source: "Fig. 10",
		Statement: "factor ordering: workload < frequency step < allocation < clock division",
		Paper:     "1% < 3% < 4% < 12%",
		Check: func(Fidelity) (string, bool) {
			r := experiments.Figure10()
			ok := r.Workload < r.FreqSkipStep && r.FreqSkipStep < r.CoreAllocation &&
				r.CoreAllocation < r.ClockDivision
			return fmt.Sprintf("%s < %s < %s < %s",
				pct(r.Workload), pct(r.FreqSkipStep), pct(r.CoreAllocation), pct(r.ClockDivision)), ok
		},
	},
	{
		ID: "fig6-droop-bins", Source: "Fig. 6 / Sec. IV-A",
		Statement: "droop magnitude bins are populated by utilized-PMD count, independent of workload",
		Paper:     "16 PMDs -> [55,65); 8 PMDs -> [45,55); fewer -> silent",
		Check: func(Fidelity) (string, bool) {
			r := experiments.Figure6(100_000_000)
			deep, mid := r.Windows[0], r.Windows[1]
			m := func(w experiments.Fig6Window, label string) float64 {
				for _, c := range w.Configs {
					if c.Label == label {
						var s float64
						for _, v := range c.PerBench {
							s += v
						}
						return s / float64(len(c.PerBench))
					}
				}
				return -1
			}
			ok := m(deep, "32T") > 10 && m(deep, "16T(spreaded)") > 10 &&
				m(deep, "16T(clustered)") < m(deep, "32T")*0.05 &&
				m(mid, "16T(clustered)") > 10 && m(mid, "8T(spreaded)") > 10 &&
				m(mid, "8T(clustered)") < m(mid, "16T(clustered)")*0.05
			return fmt.Sprintf("deep: 32T=%.0f 16Tcl=%.1f; mid: 16Tcl=%.0f 8Tcl=%.1f",
				m(deep, "32T"), m(deep, "16T(clustered)"), m(mid, "16T(clustered)"), m(mid, "8T(clustered)")), ok
		},
	},
	{
		ID: "fig7-swing", Source: "Fig. 7 / Sec. IV-B",
		Statement: "clustered-vs-spreaded energy difference spans roughly -9.6%..+14.2%, CPU-intensive preferring clustered and memory-intensive preferring spreaded",
		Paper:     "-9.6%..+14.2%",
		Check: func(Fidelity) (string, bool) {
			r, err := experiments.Figure7Context(context.Background(), experiments.Campaign{}, chip.XGene2Spec())
			if err != nil {
				return err.Error(), false
			}
			min, max := 0.0, 0.0
			split := true
			for i, e := range r.Entries {
				if e.DiffFrac < min {
					min = e.DiffFrac
				}
				if e.DiffFrac > max {
					max = e.DiffFrac
				}
				// Entries are intensity-ordered: the first must prefer
				// clustering, the last spreading.
				if i == 0 && e.DiffFrac >= 0 {
					split = false
				}
				if i == len(r.Entries)-1 && e.DiffFrac <= 0 {
					split = false
				}
			}
			ok := split && min < -0.03 && min > -0.15 && max > 0.05 && max < 0.25
			return fmt.Sprintf("%s..%s", pct(min), pct(max)), ok
		},
	},
	{
		ID: "fig8-extremes", Source: "Fig. 8 / Sec. IV-B",
		Statement: "namd and EP are the most CPU-intensive (contention ratio ~1); CG and FT among the most memory-intensive (ratio far below 1)",
		Paper:     "namd/EP ~1; CG/FT << 1",
		Check: func(Fidelity) (string, bool) {
			r := experiments.Figure8(chip.XGene3Spec())
			ratio := map[string]float64{}
			for _, e := range r.Entries {
				ratio[e.Bench] = e.Ratio
			}
			ok := ratio["namd"] > 0.9 && ratio["EP"] > 0.9 && ratio["CG"] < 0.7 && ratio["FT"] < 0.7
			return fmt.Sprintf("namd=%.2f EP=%.2f CG=%.2f FT=%.2f",
				ratio["namd"], ratio["EP"], ratio["CG"], ratio["FT"]), ok
		},
	},
	{
		ID: "fig9-threshold", Source: "Fig. 9 / Sec. IV-B",
		Statement: "3K L3C accesses per 1M cycles separates memory- from CPU-intensive programs",
		Paper:     "threshold 3000",
		Check: func(Fidelity) (string, bool) {
			r := experiments.Figure9(chip.XGene3Spec())
			agree := 0
			for _, e := range r.Entries {
				if e.MemoryIntensive == workload.MustByName(e.Bench).MemoryIntensive() {
					agree++
				}
			}
			return fmt.Sprintf("%d/25 programs classified consistently", agree), agree == 25
		},
	},
	{
		ID: "fig11-deep-division", Source: "Fig. 11 / Sec. V-A",
		Statement: "X-Gene 2 at 0.9 GHz gives significant energy savings for all programs (deep-division undervolt)",
		Paper:     "best energy at 0.9GHz for all",
		Check: func(Fidelity) (string, bool) {
			grid, err := experiments.EnergyGridContext(context.Background(), experiments.Campaign{}, chip.XGene2Spec(), sim.Clustered)
			if err != nil {
				return err.Error(), false
			}
			wins := 0
			for _, b := range experiments.FiveBenchmarks() {
				if grid.BestFreq(b.Name, 8, func(c experiments.GridCell) float64 { return c.EnergyJ }) == 900 {
					wins++
				}
			}
			return fmt.Sprintf("%d/5 benchmarks best at 0.9GHz", wins), wins == 5
		},
	},
	{
		ID: "fig12-crossover", Source: "Fig. 12 / Sec. V-B",
		Statement: "ED2P: CPU-intensive programs best at max frequency; memory-intensive best at reduced frequency",
		Paper:     "crossover by class",
		Check: func(Fidelity) (string, bool) {
			grid, err := experiments.EnergyGridContext(context.Background(), experiments.Campaign{}, chip.XGene3Spec(), sim.Clustered)
			if err != nil {
				return err.Error(), false
			}
			ed2p := func(c experiments.GridCell) float64 { return c.ED2P }
			okCPU := grid.BestFreq("namd", 32, ed2p) == 3000 && grid.BestFreq("EP", 32, ed2p) == 3000
			okMem := grid.BestFreq("CG", 32, ed2p) != 3000 && grid.BestFreq("milc", 32, ed2p) != 3000
			return fmt.Sprintf("cpu@max=%v mem@reduced=%v", okCPU, okMem), okCPU && okMem
		},
	},
	{
		ID: "table34-savings", Source: "Tables III/IV / Sec. VI-B",
		Statement: "Optimal saves ~25.2%/22.3% energy (X-Gene 2/3), more than Safe Vmin and Placement alone, at a minimal (~3%) time penalty with no failures",
		Paper:     "25.2% & 22.3%, penalty ~3%",
		Check: func(f Fidelity) (string, bool) {
			var parts string
			ok := true
			for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
				wl := wlgen.Generate(spec, wlgen.Config{Duration: f.EvalSeconds}, f.Seed)
				set, err := experiments.EvaluateAllContext(context.Background(), experiments.Campaign{}, spec, wl)
				if err != nil {
					return err.Error(), false
				}
				opt := set.EnergySavings(experiments.Optimal)
				tp := set.TimePenalty(experiments.Optimal)
				em := set.Results[experiments.Optimal].Emergencies
				if opt < 0.15 || opt > 0.35 ||
					opt <= set.EnergySavings(experiments.SafeVmin) ||
					opt <= set.EnergySavings(experiments.Placement) ||
					tp < 0 || tp > 0.08 || em != 0 {
					ok = false
				}
				parts += fmt.Sprintf("%s: %s (+%s time); ", spec.Name, pct(opt), pct(tp))
			}
			return parts, ok
		},
	},
	{
		ID: "sec6a-overhead", Source: "Sec. VI-A",
		Statement: "the daemon's placement overhead is negligible (equal to a Linux process migration)",
		Paper:     "negligible overhead",
		Check: func(f Fidelity) (string, bool) {
			r, err := experiments.Ablate(context.Background(), experiments.Campaign{}, "migration", chip.XGene3Spec(), f.EvalSeconds, f.Seed)
			if err != nil {
				return err.Error(), false
			}
			var free, linux *experiments.AblationPoint
			for i := range r.Points {
				switch r.Points[i].Label {
				case "migration cost 0ms":
					free = &r.Points[i]
				case "migration cost 0.1ms":
					linux = &r.Points[i]
				}
			}
			if free == nil || linux == nil {
				return "study points missing", false
			}
			d := linux.EnergySavings - free.EnergySavings
			ok := d < 0.005 && d > -0.005
			return fmt.Sprintf("0.1ms migrations move savings by %.2f points", 100*d), ok
		},
	},
	{
		ID: "sec6a-failsafe", Source: "Sec. VI-A",
		Statement: "the daemon's raise-before-reconfigure protocol never lets the voltage drop below the configuration's safe Vmin",
		Paper:     "reliable execution guaranteed",
		Check: func(f Fidelity) (string, bool) {
			spec := chip.XGene3Spec()
			wl := wlgen.Generate(spec, wlgen.Config{Duration: f.EvalSeconds}, f.Seed+1)
			res, err := experiments.Evaluate(spec, wl, experiments.Optimal)
			if err != nil {
				return err.Error(), false
			}
			return fmt.Sprintf("%d emergencies over %.0fs", res.Emergencies, res.TimeSec), res.Emergencies == 0
		},
	},
}

func clustered(s *chip.Spec, n int) []chip.CoreID {
	cs, err := sim.ClusteredCores(s, n)
	if err != nil {
		panic(err)
	}
	return cs
}

func spreaded(s *chip.Spec, n int) []chip.CoreID {
	cs, err := sim.SpreadedCores(s, n)
	if err != nil {
		panic(err)
	}
	return cs
}
