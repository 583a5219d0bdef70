package experiments

import (
	"context"
	"fmt"
	"io"

	"avfs/internal/ascii"
	"avfs/internal/chip"
	"avfs/internal/metrics"
	"avfs/internal/wlgen"
)

// SeedPoint is one workload seed's evaluation outcome under Optimal.
type SeedPoint struct {
	Seed          int64
	EnergySavings float64
	TimePenalty   float64
	Emergencies   int
}

// SeedStudy is the robustness study: the Optimal daemon's savings across
// independently generated workloads.
type SeedStudy struct {
	Chip     *chip.Spec
	Duration float64
	Points   []SeedPoint
}

// Savings returns the per-seed savings values.
func (s SeedStudy) Savings() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.EnergySavings
	}
	return out
}

// MeanSavings returns the mean Optimal energy saving across seeds.
func (s SeedStudy) MeanSavings() float64 { return metrics.Mean(s.Savings()) }

// StddevSavings returns the spread of savings across seeds.
func (s SeedStudy) StddevSavings() float64 { return metrics.Stddev(s.Savings()) }

// RunSeedStudyContext evaluates Baseline and Optimal over `seeds`
// independent workloads of the given duration: each seed's
// Baseline+Optimal pair is one independent cell of the campaign.
func RunSeedStudyContext(ctx context.Context, cam Campaign, spec *chip.Spec, duration float64, seeds []int64) (SeedStudy, error) {
	st := SeedStudy{Chip: spec, Duration: duration}
	pts, err := runCells(ctx, cam, seeds, func(_ context.Context, seed int64) (SeedPoint, error) {
		wl := wlgen.Generate(spec, wlgen.Config{Duration: duration}, seed)
		base, err := Evaluate(spec, wl, Baseline)
		if err != nil {
			return SeedPoint{}, err
		}
		opt, err := Evaluate(spec, wl, Optimal)
		if err != nil {
			return SeedPoint{}, err
		}
		return SeedPoint{
			Seed:          seed,
			EnergySavings: metrics.Savings(base.EnergyJ, opt.EnergyJ),
			TimePenalty:   metrics.RelDiff(opt.TimeSec, base.TimeSec),
			Emergencies:   opt.Emergencies,
		}, nil
	})
	if err != nil {
		return st, err
	}
	st.Points = pts
	return st, nil
}

// Render writes the per-seed table plus the summary line.
func (s SeedStudy) Render(w io.Writer) {
	fmt.Fprintf(w, "Optimal savings across workload seeds (%s, %.0fs each)\n", s.Chip.Name, s.Duration)
	rows := make([][]string, 0, len(s.Points))
	for _, p := range s.Points {
		rows = append(rows, []string{
			fmt.Sprint(p.Seed),
			metrics.Percent(p.EnergySavings),
			metrics.Percent(p.TimePenalty),
			fmt.Sprint(p.Emergencies),
		})
	}
	ascii.Table(w, []string{"seed", "energy savings", "time penalty", "emergencies"}, rows)
	fmt.Fprintf(w, "mean %.1f%% +- %.1f%% across %d seeds\n",
		100*s.MeanSavings(), 100*s.StddevSavings(), len(s.Points))
}
