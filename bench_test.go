// Benchmarks that regenerate every table and figure of the paper's
// evaluation (DESIGN.md §3 maps each to its experiment). Custom metrics
// report the headline quantities next to the usual ns/op:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks use reduced characterization trial counts so a
// full -bench=. pass stays in the minutes range; cmd/* binaries run the
// same experiments at paper-fidelity settings.
package avfs

import (
	"context"
	"io"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/sim"
	"avfs/internal/wlgen"
)

// benchTrials is the per-voltage-level run count used by characterization
// benchmarks (the paper uses 1000; the discovered safe points match).
const benchTrials = 120

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableI().Render(io.Discard)
	}
}

func BenchmarkFigure3_VminCharacterization(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3Context(context.Background(), experiments.Campaign{}, benchTrials)
		if err != nil {
			b.Fatal(err)
		}
		spread = 0
		for _, c := range r.Configs {
			if s := float64(c.SpreadMV()); s > spread {
				spread = s
			}
		}
	}
	b.ReportMetric(spread, "worst-multicore-spread-mV")
}

func BenchmarkFigure4_CoreVariation(b *testing.B) {
	var wl, core float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4Context(context.Background(), experiments.Campaign{}, benchTrials)
		if err != nil {
			b.Fatal(err)
		}
		wl = float64(r.WorkloadVariationMV())
		core = float64(r.CoreVariationMV())
	}
	b.ReportMetric(wl, "workload-variation-mV")
	b.ReportMetric(core, "core-variation-mV")
}

func BenchmarkFigure5_PFailCurves(b *testing.B) {
	var lines float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5Context(context.Background(), experiments.Campaign{}, 60)
		if err != nil {
			b.Fatal(err)
		}
		lines = float64(len(r.Lines))
	}
	b.ReportMetric(lines, "pfail-curves")
}

func BenchmarkFigure6_DroopDetections(b *testing.B) {
	var deep float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6(100_000_000)
		// Mean [55,65) rate of the 32T configuration.
		cfg := r.Windows[0].Configs[0]
		var s float64
		for _, v := range cfg.PerBench {
			s += v
		}
		deep = s / float64(len(cfg.PerBench))
	}
	b.ReportMetric(deep, "droops-55-65mV-per-1Mcyc")
}

func BenchmarkFigure7_ClusteredVsSpreaded(b *testing.B) {
	var maxDiff float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7Context(context.Background(), experiments.Campaign{}, chip.XGene2Spec())
		if err != nil {
			b.Fatal(err)
		}
		maxDiff = 0
		for _, e := range r.Entries {
			if e.DiffFrac > maxDiff {
				maxDiff = e.DiffFrac
			}
		}
	}
	b.ReportMetric(100*maxDiff, "max-spread-benefit-%")
}

func BenchmarkFigure8_ContentionRatios(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8(chip.XGene3Spec())
		worst = 1
		for _, e := range r.Entries {
			if e.Ratio < worst {
				worst = e.Ratio
			}
		}
	}
	b.ReportMetric(worst, "worst-contention-ratio")
}

func BenchmarkFigure9_L3CRates(b *testing.B) {
	var memCount float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9(chip.XGene3Spec())
		memCount = 0
		for _, e := range r.Entries {
			if e.MemoryIntensive {
				memCount++
			}
		}
	}
	b.ReportMetric(memCount, "memory-intensive-programs")
}

func BenchmarkFigure10_FactorMagnitudes(b *testing.B) {
	var division float64
	for i := 0; i < b.N; i++ {
		division = 100 * experiments.Figure10().ClockDivision
	}
	b.ReportMetric(division, "clock-division-%nominal")
}

func BenchmarkFigure11_EnergyGrid_XGene2(b *testing.B) {
	benchGrid(b, chip.XGene2Spec(), func(g experiments.GridResult) float64 {
		c, _ := g.Cell("CG", 8, 900)
		return c.EnergyJ
	}, "CG-8T-0.9GHz-J")
}

func BenchmarkFigure11_EnergyGrid_XGene3(b *testing.B) {
	benchGrid(b, chip.XGene3Spec(), func(g experiments.GridResult) float64 {
		c, _ := g.Cell("CG", 32, 1500)
		return c.EnergyJ
	}, "CG-32T-1.5GHz-J")
}

func BenchmarkFigure12_ED2PGrid_XGene3(b *testing.B) {
	benchGrid(b, chip.XGene3Spec(), func(g experiments.GridResult) float64 {
		hi, _ := g.Cell("namd", 32, 3000)
		lo, _ := g.Cell("namd", 32, 1500)
		return lo.ED2P / hi.ED2P
	}, "namd-ED2P-half-vs-full")
}

func benchGrid(b *testing.B, spec *chip.Spec, metric func(experiments.GridResult) float64, name string) {
	b.Helper()
	var v float64
	for i := 0; i < b.N; i++ {
		g, err := experiments.EnergyGridContext(context.Background(), experiments.Campaign{}, spec, sim.Clustered)
		if err != nil {
			b.Fatal(err)
		}
		v = metric(g)
	}
	b.ReportMetric(v, name)
}

func BenchmarkTableII(b *testing.B) {
	var rows float64
	for i := 0; i < b.N; i++ {
		rows = float64(len(experiments.TableII().Rows))
	}
	b.ReportMetric(rows, "rows")
}

// benchEvaluate runs the four-configuration evaluation over a reduced
// (15-minute) workload and reports the paper's headline numbers.
func benchEvaluate(b *testing.B, spec *chip.Spec) {
	b.Helper()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 900}, 42)
	var set *experiments.EvalSet
	for i := 0; i < b.N; i++ {
		var err error
		set, err = experiments.EvaluateAllContext(context.Background(), experiments.Campaign{}, spec, wl)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*set.EnergySavings(experiments.SafeVmin), "safevmin-savings-%")
	b.ReportMetric(100*set.EnergySavings(experiments.Placement), "placement-savings-%")
	b.ReportMetric(100*set.EnergySavings(experiments.Optimal), "optimal-savings-%")
	b.ReportMetric(100*set.TimePenalty(experiments.Optimal), "time-penalty-%")
	b.ReportMetric(float64(set.Results[experiments.Optimal].Emergencies), "emergencies")
}

func BenchmarkTableIII_Evaluation_XGene2(b *testing.B) { benchEvaluate(b, chip.XGene2Spec()) }
func BenchmarkTableIV_Evaluation_XGene3(b *testing.B)  { benchEvaluate(b, chip.XGene3Spec()) }

// BenchmarkFigure14_PowerTimeline exercises the trace path of Fig. 14: one
// Optimal run with 1-second power sampling.
func BenchmarkFigure14_PowerTimeline(b *testing.B) {
	spec := chip.XGene3Spec()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 600}, 42)
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Evaluate(spec, wl, experiments.Optimal)
		if err != nil {
			b.Fatal(err)
		}
		mean = r.Power.Mean()
	}
	b.ReportMetric(mean, "mean-power-W")
}

// BenchmarkFigure15_LoadTimeline exercises the load/process-count traces
// of Fig. 15 including the 1-minute moving average.
func BenchmarkFigure15_LoadTimeline(b *testing.B) {
	spec := chip.XGene3Spec()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 600}, 42)
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Evaluate(spec, wl, experiments.Optimal)
		if err != nil {
			b.Fatal(err)
		}
		peak = r.Load.MovingAvg(60).Max()
	}
	b.ReportMetric(peak, "peak-1min-load")
}

// --- Ablation and extension studies (DESIGN.md §3, beyond the paper) ----

func benchAblation(b *testing.B, run func() (experiments.AblationResult, error), metric func(experiments.AblationResult) (float64, string)) {
	b.Helper()
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	v, name := metric(r)
	b.ReportMetric(v, name)
}

func BenchmarkAblation_Threshold(b *testing.B) {
	benchAblation(b, func() (experiments.AblationResult, error) {
		return experiments.Ablate(context.Background(), experiments.Campaign{}, "threshold", chip.XGene2Spec(), 600, 42)
	}, func(r experiments.AblationResult) (float64, string) {
		return 100 * r.Points[2].EnergySavings, "3K-threshold-savings-%"
	})
}

func BenchmarkAblation_Guard(b *testing.B) {
	benchAblation(b, func() (experiments.AblationResult, error) {
		return experiments.Ablate(context.Background(), experiments.Campaign{}, "guard", chip.XGene3Spec(), 600, 42)
	}, func(r experiments.AblationResult) (float64, string) {
		return float64(r.Points[len(r.Points)-1].Emergencies), "emergencies-at-guard--25mV"
	})
}

func BenchmarkAblation_Protocol(b *testing.B) {
	benchAblation(b, func() (experiments.AblationResult, error) {
		return experiments.Ablate(context.Background(), experiments.Campaign{}, "protocol", chip.XGene3Spec(), 600, 42)
	}, func(r experiments.AblationResult) (float64, string) {
		return float64(r.Points[1].Emergencies), "emergencies-inverted-order"
	})
}

func BenchmarkExtension_Relaxed(b *testing.B) {
	benchAblation(b, func() (experiments.AblationResult, error) {
		return experiments.Ablate(context.Background(), experiments.Campaign{}, "relaxed", chip.XGene3Spec(), 600, 42)
	}, func(r experiments.AblationResult) (float64, string) {
		return 100 * r.Points[len(r.Points)-1].EnergySavings, "half-speed-cpu-savings-%"
	})
}

func BenchmarkExtension_Aging(b *testing.B) {
	benchAblation(b, func() (experiments.AblationResult, error) {
		return experiments.Ablate(context.Background(), experiments.Campaign{}, "aging", chip.XGene3Spec(), 600, 42)
	}, func(r experiments.AblationResult) (float64, string) {
		return 100 * r.Points[len(r.Points)-1].EnergySavings, "7y-age-aware-savings-%"
	})
}

func BenchmarkRobustness_Seeds(b *testing.B) {
	var st experiments.SeedStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = experiments.RunSeedStudyContext(context.Background(), experiments.Campaign{}, chip.XGene3Spec(), 480, []int64{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*st.MeanSavings(), "mean-savings-%")
	b.ReportMetric(100*st.StddevSavings(), "stddev-savings-%")
}
