// Package report generates a single self-contained reproduction report:
// it runs every experiment of the paper's evaluation (plus this
// repository's ablation and robustness studies) and renders them into one
// markdown document. It is the "regenerate everything" entry point behind
// cmd/report.
package report

import (
	"context"
	"fmt"
	"io"
	"time"

	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/sim"
	"avfs/internal/wlgen"
)

// Options control the fidelity/runtime trade-off of a report run.
type Options struct {
	// Trials is the per-voltage-level run count for characterization
	// experiments (0 = the paper's 1000).
	Trials int
	// EvalDuration is the workload length of the Tables III/IV runs in
	// seconds (the paper uses 3600).
	EvalDuration float64
	// AblationDuration is the workload length of the ablation sweeps.
	AblationDuration float64
	// Seed drives the workload generator.
	Seed int64
	// Seeds is the robustness-study seed count (0 skips it).
	Seeds int
	// SkipSlow drops the slowest studies (ablations, robustness) for a
	// figures-and-tables-only report.
	SkipSlow bool
}

// Defaults returns paper-fidelity settings (minutes of runtime).
func Defaults() Options {
	return Options{
		Trials:           0,
		EvalDuration:     3600,
		AblationDuration: 900,
		Seed:             42,
		Seeds:            5,
	}
}

// Quick returns reduced settings for fast runs (tens of seconds).
func Quick() Options {
	return Options{
		Trials:           120,
		EvalDuration:     900,
		AblationDuration: 600,
		Seed:             42,
		Seeds:            3,
		SkipSlow:         false,
	}
}

// section writes one titled block whose body is produced by fn.
func section(w io.Writer, title string, fn func(io.Writer)) {
	fmt.Fprintf(w, "\n## %s\n\n```\n", title)
	fn(w)
	fmt.Fprint(w, "```\n")
}

// ablationSections titles the report section of each ablation study.
var ablationSections = map[string]string{
	"threshold":  "Ablation — classification threshold",
	"guard":      "Ablation — voltage guard",
	"poll":       "Ablation — monitoring period",
	"hysteresis": "Ablation — hysteresis",
	"memfreq":    "Ablation — memory-PMD frequency (X-Gene 2)",
	"relaxed":    "Extension — relaxed performance constraints",
	"protocol":   "Ablation — fail-safe transition ordering",
	"aging":      "Extension — aging drift vs voltage guard",
	"migration":  "Ablation — migration cost",
}

// Generate runs everything and writes the report to w.
func Generate(w io.Writer, opts Options) error {
	ctx, cam := context.Background(), experiments.Campaign{}
	fmt.Fprintln(w, "# AVFS reproduction report")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Generated %s. Settings: trials=%d (0 = paper's 1000), evaluation %gs, ablations %gs, seed %d.\n",
		time.Now().UTC().Format(time.RFC3339), opts.Trials, opts.EvalDuration, opts.AblationDuration, opts.Seed)
	fmt.Fprintln(w, "\nPaper: Papadimitriou, Chatzidimitriou, Gizopoulos — \"Adaptive Voltage/Frequency")
	fmt.Fprintln(w, "Scaling and Core Allocation for Balanced Energy and Performance on Multicore")
	fmt.Fprintln(w, "CPUs\", HPCA 2019. Substrates are calibrated simulations; see DESIGN.md.")

	section(w, "Table I — chip parameters", func(w io.Writer) {
		experiments.TableI().Render(w)
	})
	fig3, err := experiments.Figure3Context(ctx, cam, opts.Trials)
	if err != nil {
		return fmt.Errorf("report: figure 3: %w", err)
	}
	section(w, "Figure 3 — safe Vmin characterization", fig3.Render)
	fig4, err := experiments.Figure4Context(ctx, cam, opts.Trials)
	if err != nil {
		return fmt.Errorf("report: figure 4: %w", err)
	}
	section(w, "Figure 4 — single-/two-core variation", fig4.Render)
	fig5, err := experiments.Figure5Context(ctx, cam, opts.Trials)
	if err != nil {
		return fmt.Errorf("report: figure 5: %w", err)
	}
	section(w, "Figure 5 — pfail below safe Vmin", fig5.Render)
	section(w, "Figure 6 — droop detections", func(w io.Writer) {
		experiments.Figure6(500_000_000).Render(w)
	})
	section(w, "Table II — droop class vs Vmin", func(w io.Writer) {
		experiments.TableII().Render(w)
	})
	fig7, err := experiments.Figure7Context(ctx, cam, chip.XGene2Spec())
	if err != nil {
		return fmt.Errorf("report: figure 7: %w", err)
	}
	section(w, "Figure 7 — clustered vs spreaded energy (X-Gene 2)", fig7.Render)
	section(w, "Figure 8 — contention ratios (X-Gene 3)", func(w io.Writer) {
		experiments.Figure8(chip.XGene3Spec()).Render(w)
	})
	section(w, "Figure 9 — L3C access rates (X-Gene 3)", func(w io.Writer) {
		experiments.Figure9(chip.XGene3Spec()).Render(w)
	})
	section(w, "Figure 10 — Vmin factor magnitudes", func(w io.Writer) {
		experiments.Figure10().Render(w)
	})
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		grid, err := experiments.EnergyGridContext(ctx, cam, spec, sim.Clustered)
		if err != nil {
			return fmt.Errorf("report: energy grid on %s: %w", spec.Name, err)
		}
		section(w, fmt.Sprintf("Figures 11/12 — energy and ED2P grids (%s)", spec.Name), func(w io.Writer) {
			grid.RenderEnergy(w)
			fmt.Fprintln(w)
			grid.RenderED2P(w)
		})
	}

	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		wl := wlgen.Generate(spec, wlgen.Config{Duration: opts.EvalDuration}, opts.Seed)
		set, err := experiments.EvaluateAllContext(ctx, cam, spec, wl)
		if err != nil {
			return fmt.Errorf("report: evaluation on %s: %w", spec.Name, err)
		}
		title := "Table III"
		if spec.Model == chip.XGene3 {
			title = "Table IV"
		}
		section(w, fmt.Sprintf("%s — system evaluation (%s)", title, spec.Name), func(w io.Writer) {
			set.Render(w)
		})
		section(w, fmt.Sprintf("Energy breakdown by component (%s)", spec.Name), func(w io.Writer) {
			set.RenderBreakdown(w)
		})
		if spec.Model == chip.XGene3 {
			section(w, "Figure 14 — power timeline (X-Gene 3)", func(w io.Writer) {
				set.RenderFig14(w, 100)
			})
			section(w, "Figure 15 — load timeline (X-Gene 3)", func(w io.Writer) {
				set.RenderFig15(w, 100)
			})
		}
	}

	if opts.SkipSlow {
		return nil
	}

	x3 := chip.XGene3Spec()
	for _, st := range experiments.AblationStudies() {
		spec := x3
		if st.Name == "threshold" {
			spec = chip.XGene2Spec()
		}
		res, err := experiments.Ablate(ctx, cam, st.Name, spec, opts.AblationDuration, opts.Seed)
		if err != nil {
			return fmt.Errorf("report: %s: %w", ablationSections[st.Name], err)
		}
		section(w, ablationSections[st.Name], res.Render)
	}

	section(w, "Extension — chip-to-chip variation (fleet study)", func(w io.Writer) {
		experiments.FleetStudy(chip.XGene2Spec(), 100, opts.Seed).Render(w)
		fmt.Fprintln(w)
		experiments.FleetStudy(x3, 100, opts.Seed).Render(w)
	})

	capStudy, err := experiments.RunCapStudyContext(ctx, cam, x3, opts.AblationDuration, opts.Seed)
	if err != nil {
		return fmt.Errorf("report: cap study: %w", err)
	}
	section(w, "Comparison — power capping vs the efficiency daemon", capStudy.Render)

	if opts.Seeds > 0 {
		var seeds []int64
		for i := 0; i < opts.Seeds; i++ {
			seeds = append(seeds, opts.Seed+int64(i))
		}
		st, err := experiments.RunSeedStudyContext(ctx, cam, x3, opts.AblationDuration, seeds)
		if err != nil {
			return fmt.Errorf("report: seed study: %w", err)
		}
		section(w, "Robustness — savings across workload seeds", st.Render)
	}
	return nil
}
