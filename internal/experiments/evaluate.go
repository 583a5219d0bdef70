package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"avfs/internal/ascii"
	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/metrics"
	"avfs/internal/power"
	"avfs/internal/sim"
	"avfs/internal/trace"
	"avfs/internal/wlgen"
)

// SystemConfig selects one of the four evaluated system configurations of
// Sec. VI-B.
type SystemConfig int

const (
	// Baseline: default placement, ondemand governor, nominal voltage.
	Baseline SystemConfig = iota
	// SafeVmin: like Baseline, but the supply voltage is programmed to
	// the Table II safe Vmin of the worst-case (all-PMD, full-speed)
	// configuration — quantifying the pessimistic guardband alone.
	SafeVmin
	// Placement: the daemon drives placement and per-PMD frequency, but
	// the voltage stays nominal.
	Placement
	// Optimal: the full daemon — placement, frequency and voltage.
	Optimal
)

// String names the configuration like the paper's tables.
func (c SystemConfig) String() string {
	switch c {
	case Baseline:
		return "Baseline"
	case SafeVmin:
		return "Safe Vmin"
	case Placement:
		return "Placement"
	case Optimal:
		return "Optimal"
	default:
		return fmt.Sprintf("SystemConfig(%d)", int(c))
	}
}

// Name is the configuration's wire name: baseline, safe-vmin, placement
// or optimal.
func (c SystemConfig) Name() string {
	if c < Baseline || c > Optimal {
		return c.String()
	}
	return [...]string{"baseline", "safe-vmin", "placement", "optimal"}[c]
}

// ErrUnknownPolicy rejects a wire name of none of the configurations.
var ErrUnknownPolicy = errors.New("experiments: unknown policy")

// ParseSystemConfig resolves a wire name, case-insensitively: a Name,
// the aliases safevmin and safe_vmin, or "" for Optimal.
func ParseSystemConfig(s string) (SystemConfig, error) {
	switch name := strings.ToLower(strings.TrimSpace(s)); name {
	case "":
		return Optimal, nil
	case "safevmin", "safe_vmin":
		return SafeVmin, nil
	default:
		for _, c := range SystemConfigs() {
			if c.Name() == name {
				return c, nil
			}
		}
	}
	return Optimal, fmt.Errorf("%w: %q (want baseline, safe-vmin, placement or optimal)", ErrUnknownPolicy, s)
}

// SystemConfigs lists all four in table order.
func SystemConfigs() []SystemConfig {
	return []SystemConfig{Baseline, SafeVmin, Placement, Optimal}
}

// EvalResult is the outcome of replaying one workload under one
// configuration.
type EvalResult struct {
	Config SystemConfig
	Chip   *chip.Spec

	// TimeSec is the completion time of the whole workload.
	TimeSec float64
	// AvgPowerW is mean PCP power over the run.
	AvgPowerW float64
	// EnergyJ is the total consumed energy.
	EnergyJ float64
	// ED2P is EnergyJ × TimeSec².
	ED2P float64
	// Emergencies counts voltage-emergency instants (must be zero).
	Emergencies int

	// Power is the 1-second-sampled power series (Fig. 14).
	Power *trace.Series
	// Load is the busy-core count series (Fig. 15, before the 1-minute
	// moving average).
	Load *trace.Series
	// CPUProcs and MemProcs are the running-process counts per class
	// (Fig. 15; classes are the daemon's when a daemon runs, otherwise
	// the catalog ground truth).
	CPUProcs *trace.Series
	MemProcs *trace.Series

	// DaemonStats is populated for Placement and Optimal.
	DaemonStats daemon.Stats

	// EnergyBD decomposes EnergyJ by power-model component (joules).
	EnergyBD power.Breakdown
}

// Evaluate replays workload wl on a fresh machine of the given chip under
// the chosen system configuration and measures the paper's table metrics.
func Evaluate(spec *chip.Spec, wl *wlgen.Workload, cfg SystemConfig) (EvalResult, error) {
	res, _, err := evaluate(sim.New(spec), wl, cfg)
	return res, err
}

// evaluate is Evaluate on a caller-built machine. It also returns the
// replayed control stack, and through it the machine, so the equivalence
// tests can step a machine tick by tick and compare observables beyond the
// table metrics (per-core counters, finish order, controller state).
func evaluate(m *sim.Machine, wl *wlgen.Workload, cfg SystemConfig) (EvalResult, *Stack, error) {
	res := EvalResult{Config: cfg, Chip: m.Spec}
	// The Fig. 14/15 recorder never ends a batch. Samples that fall due
	// strictly inside a committed batch are taken by this hook, registered
	// before the control stack: it runs after the commit and before any
	// controller acts, which is the state serial stepping samples at those
	// ticks (no controller boundary lies inside a batch). A sample on the
	// batch's last tick is taken after the stack, as serial stepping does.
	rec := trace.NewRecorder(1.0)
	m.OnTickBounded(func(mm *sim.Machine, k int) {
		end := mm.Ticks()
		rec.TickSpan(end-uint64(k)+1, end-1, mm.Tick)
	}, nil)
	stack, err := NewStack(m, cfg, 0, nil, nil)
	if err != nil {
		return res, nil, err
	}
	trackFigures(rec, m, stack, cfg, &res)
	m.OnTickBounded(func(mm *sim.Machine, _ int) { rec.Tick(mm.Now()) }, nil)

	// Replay the arrival schedule.
	if err := replayArrivals(m, wl, cfg.String()); err != nil {
		return res, stack, err
	}

	res.TimeSec = m.Now()
	res.EnergyJ = m.Meter.Energy()
	res.EnergyBD = m.EnergyBreakdown()
	res.AvgPowerW = m.Meter.AveragePower()
	res.ED2P = res.EnergyJ * res.TimeSec * res.TimeSec
	res.Emergencies = len(m.Emergencies())
	// A disabled daemon takes no actions, so Baseline and Safe Vmin stay
	// at zero.
	res.DaemonStats = stack.D.Stats()
	return res, stack, nil
}

// trackFigures registers res's Fig. 14/15 series on rec.
func trackFigures(rec *trace.Recorder, m *sim.Machine, stack *Stack, cfg SystemConfig, res *EvalResult) {
	res.Power = rec.Track("power (W)", m.LastPower)
	res.Load = rec.Track("busy cores", func() float64 {
		return float64(m.Spec.Cores - m.FreeCoreCount())
	})
	classCounts := func() (cpu, mem int) {
		if cfg.runsDaemon() {
			return stack.D.ClassCounts()
		}
		for _, p := range m.RunningView() {
			if p.Bench.MemoryIntensive() {
				mem++
			} else {
				cpu++
			}
		}
		return
	}
	res.CPUProcs = rec.Track("cpu-intensive procs", func() float64 {
		c, _ := classCounts()
		return float64(c)
	})
	res.MemProcs = rec.Track("memory-intensive procs", func() float64 {
		_, mm := classCounts()
		return float64(mm)
	})
}

// EvalSet is the four-configuration comparison of Table III (X-Gene 2) or
// Table IV (X-Gene 3).
type EvalSet struct {
	Chip     *chip.Spec
	Workload *wlgen.Workload
	Results  map[SystemConfig]EvalResult
}

// EvaluateAllContext runs all four configurations over the same
// workload: the four replays run as independent campaign cells, each on
// its own fresh machine.
func EvaluateAllContext(ctx context.Context, cam Campaign, spec *chip.Spec, wl *wlgen.Workload) (*EvalSet, error) {
	cfgs := SystemConfigs()
	results, err := runCells(ctx, cam, cfgs, func(_ context.Context, cfg SystemConfig) (EvalResult, error) {
		return Evaluate(spec, wl, cfg)
	})
	if err != nil {
		return nil, err
	}
	set := &EvalSet{Chip: spec, Workload: wl, Results: map[SystemConfig]EvalResult{}}
	for i, cfg := range cfgs {
		set.Results[cfg] = results[i]
	}
	return set, nil
}

// EnergySavings returns a configuration's energy saving vs Baseline.
func (s *EvalSet) EnergySavings(cfg SystemConfig) float64 {
	return metrics.Savings(s.Results[Baseline].EnergyJ, s.Results[cfg].EnergyJ)
}

// ED2PSavings returns a configuration's ED2P saving vs Baseline.
func (s *EvalSet) ED2PSavings(cfg SystemConfig) float64 {
	return metrics.Savings(s.Results[Baseline].ED2P, s.Results[cfg].ED2P)
}

// TimePenalty returns a configuration's completion-time increase vs
// Baseline (positive = slower).
func (s *EvalSet) TimePenalty(cfg SystemConfig) float64 {
	return metrics.RelDiff(s.Results[cfg].TimeSec, s.Results[Baseline].TimeSec)
}

// Render writes the Table III/IV layout.
func (s *EvalSet) Render(w io.Writer) {
	fmt.Fprintf(w, "%s results for the 4 configurations (%d processes over %.0fs, seed %d)\n",
		s.Chip.Name, s.Workload.TotalProcesses(), s.Workload.Duration, s.Workload.Seed)
	headers := []string{""}
	for _, cfg := range SystemConfigs() {
		headers = append(headers, cfg.String())
	}
	row := func(name string, f func(EvalResult) string) []string {
		r := []string{name}
		for _, cfg := range SystemConfigs() {
			r = append(r, f(s.Results[cfg]))
		}
		return r
	}
	rows := [][]string{
		row("Time (s)", func(r EvalResult) string { return fmt.Sprintf("%.0f", r.TimeSec) }),
		row("Avg. Power (W)", func(r EvalResult) string { return fmt.Sprintf("%.2f", r.AvgPowerW) }),
		row("Energy (J)", func(r EvalResult) string { return fmt.Sprintf("%.2f", r.EnergyJ) }),
		row("Energy Savings", func(r EvalResult) string {
			if r.Config == Baseline {
				return "-"
			}
			return metrics.Percent(s.EnergySavings(r.Config))
		}),
		row("ED2P (workload)", func(r EvalResult) string { return fmt.Sprintf("%.3g", r.ED2P) }),
		row("ED2P Savings", func(r EvalResult) string {
			if r.Config == Baseline {
				return "-"
			}
			return metrics.Percent(s.ED2PSavings(r.Config))
		}),
		row("Time Penalty", func(r EvalResult) string {
			if r.Config == Baseline {
				return "-"
			}
			return metrics.Percent(s.TimePenalty(r.Config))
		}),
		row("Voltage Emergencies", func(r EvalResult) string { return fmt.Sprint(r.Emergencies) }),
	}
	ascii.Table(w, headers, rows)
}

// RenderBreakdown writes where the Optimal configuration's energy savings
// come from, component by component — insight beyond the paper's totals.
func (s *EvalSet) RenderBreakdown(w io.Writer) {
	base := s.Results[Baseline].EnergyBD
	opt := s.Results[Optimal].EnergyBD
	fmt.Fprintf(w, "Energy by component, Baseline vs Optimal (%s)\n", s.Chip.Name)
	row := func(name string, b, o float64) []string {
		return []string{
			name,
			fmt.Sprintf("%.0f", b),
			fmt.Sprintf("%.0f", o),
			metrics.Percent(metrics.Savings(b, o)),
		}
	}
	rows := [][]string{
		row("core dynamic", base.CoreDynamic, opt.CoreDynamic),
		row("PMD uncore", base.PMDUncore, opt.PMDUncore),
		row("L3 + fabric", base.L3Fabric, opt.L3Fabric),
		row("memory ctl", base.MemCtl, opt.MemCtl),
		row("leakage", base.Leakage, opt.Leakage),
		row("total", base.Total(), opt.Total()),
	}
	ascii.Table(w, []string{"component", "baseline (J)", "optimal (J)", "savings"}, rows)
}

// RenderFig14 writes the Baseline-vs-Optimal power timelines (Fig. 14).
func (s *EvalSet) RenderFig14(w io.Writer, width int) {
	fmt.Fprintf(w, "Average power, Baseline vs Optimal (%s)\n", s.Chip.Name)
	base := seriesValues(s.Results[Baseline].Power)
	opt := seriesValues(s.Results[Optimal].Power)
	ascii.LineChart(w,
		[]string{"Baseline", "Optimal"},
		[][]float64{ascii.Downsample(base, width), ascii.Downsample(opt, width)})
	fmt.Fprintf(w, "mean power: baseline %.2fW, optimal %.2fW\n",
		s.Results[Baseline].AvgPowerW, s.Results[Optimal].AvgPowerW)
}

// RenderFig15 writes the Optimal run's system load (1-minute moving
// average) and per-class process counts (Fig. 15).
func (s *EvalSet) RenderFig15(w io.Writer, width int) {
	r := s.Results[Optimal]
	fmt.Fprintf(w, "System load and running processes (%s, Optimal)\n", s.Chip.Name)
	load := r.Load.MovingAvg(60)
	ascii.LineChart(w,
		[]string{"load (1-min avg)", "cpu-intensive", "memory-intensive"},
		[][]float64{
			ascii.Downsample(seriesValues(load), width),
			ascii.Downsample(seriesValues(r.CPUProcs), width),
			ascii.Downsample(seriesValues(r.MemProcs), width),
		})
}

func seriesValues(s *trace.Series) []float64 {
	pts := s.Points()
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}
