package experiments

import (
	"context"
	"fmt"
	"io"

	"avfs/internal/ascii"
	"avfs/internal/chip"
	"avfs/internal/metrics"
	"avfs/internal/sched"
	"avfs/internal/sim"
	"avfs/internal/wlgen"
)

// CapPoint is one system's outcome in the capping comparison.
type CapPoint struct {
	Label       string
	AvgPowerW   float64
	PeakPowerW  float64
	EnergyJ     float64
	TimeSec     float64
	Emergencies int
}

// CapStudy compares the paper's efficiency-first daemon against naive
// RAPL-style power capping (the Sec. I motivation): the cap budget is set
// to the daemon's own average power, so both systems draw comparable
// power — the question is what each pays in completion time and energy.
type CapStudy struct {
	Chip     *chip.Spec
	Seed     int64
	Duration float64
	BudgetW  float64
	Points   []CapPoint
}

// RunCapStudyContext replays one workload under Baseline, a power cap at
// the daemon's average power, and the Optimal daemon. The Baseline and
// Optimal replays are independent campaign cells; the capped replay must
// wait for them because its budget is the Optimal daemon's measured
// average power.
func RunCapStudyContext(ctx context.Context, cam Campaign, spec *chip.Spec, duration float64, seed int64) (CapStudy, error) {
	wl := wlgen.Generate(spec, wlgen.Config{Duration: duration}, seed)
	st := CapStudy{Chip: spec, Seed: seed, Duration: duration}

	replay := func(label string, m *sim.Machine) (CapPoint, error) {
		if err := replayArrivals(m, wl, "cap-study "+label); err != nil {
			return CapPoint{}, err
		}
		return CapPoint{
			Label:       label,
			AvgPowerW:   m.Meter.AveragePower(),
			PeakPowerW:  m.Meter.Peak(),
			EnergyJ:     m.Meter.Energy(),
			TimeSec:     m.Now(),
			Emergencies: len(m.Emergencies()),
		}, nil
	}

	labels := map[SystemConfig]string{Baseline: "Baseline (ondemand)", Optimal: "Optimal daemon"}
	firstTwo, err := runCells(ctx, cam, []SystemConfig{Baseline, Optimal}, func(_ context.Context, cfg SystemConfig) (CapPoint, error) {
		m := sim.New(spec)
		if _, err := NewStack(m, cfg, 0, nil, nil); err != nil {
			return CapPoint{}, err
		}
		return replay(labels[cfg], m)
	})
	if err != nil {
		return st, err
	}
	base, opt := firstTwo[0], firstTwo[1]
	st.BudgetW = opt.AvgPowerW
	capped, err := runCells(ctx, cam, []float64{st.BudgetW}, func(_ context.Context, w float64) (CapPoint, error) {
		// The RAPL-only system: the standalone governor brings its own
		// placer and no policy stack.
		m := sim.New(spec)
		sched.NewPowerCap(m, w).Attach()
		return replay(fmt.Sprintf("Power cap @ %.1fW", w), m)
	})
	if err != nil {
		return st, err
	}
	st.Points = []CapPoint{base, capped[0], opt}
	return st, nil
}

// Point returns the outcome with the given label prefix.
func (s CapStudy) Point(prefix string) (CapPoint, bool) {
	for _, p := range s.Points {
		if len(p.Label) >= len(prefix) && p.Label[:len(prefix)] == prefix {
			return p, true
		}
	}
	return CapPoint{}, false
}

// Render writes the comparison table.
func (s CapStudy) Render(w io.Writer) {
	fmt.Fprintf(w, "Power capping vs the efficiency daemon (%s, %.0fs workload, seed %d, budget %.1fW)\n",
		s.Chip.Name, s.Duration, s.Seed, s.BudgetW)
	base := s.Points[0]
	rows := make([][]string, 0, len(s.Points))
	for _, p := range s.Points {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%.2f", p.AvgPowerW),
			fmt.Sprintf("%.2f", p.PeakPowerW),
			fmt.Sprintf("%.0f", p.EnergyJ),
			fmt.Sprintf("%.0f", p.TimeSec),
			metrics.Percent(metrics.RelDiff(p.TimeSec, base.TimeSec)),
			fmt.Sprint(p.Emergencies),
		})
	}
	ascii.Table(w, []string{"system", "avg W", "peak W", "energy J", "time s", "time vs baseline", "emergencies"}, rows)
}
