package experiments

import (
	"context"
	"fmt"
	"io"

	"avfs/internal/ascii"
	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/metrics"
	"avfs/internal/sim"
	"avfs/internal/vmin"
	"avfs/internal/wlgen"
)

// The ablation studies quantify the design choices DESIGN.md calls out:
// the 3K classification threshold, the one-step voltage guard above the
// Table II envelope, the monitoring period, the hysteresis band, the
// memory-PMD frequency choice (X-Gene 2's deep division vs plain half
// speed), the fail-safe transition ordering, and the extensions beyond
// the paper (relaxed performance constraints, aging drift, migration
// cost). Each sweep replays the same workload under daemon variants and
// reports energy savings, time penalty and voltage emergencies against
// the shared Baseline. AblationStudies lists them; Ablate runs one.

// AblationPoint is one daemon variant's outcome.
type AblationPoint struct {
	Label string
	// EnergySavings and TimePenalty are vs the Baseline run.
	EnergySavings float64
	TimePenalty   float64
	Emergencies   int
	ClassFlips    int
	Migrations    int
}

// AblationResult is one sweep.
type AblationResult struct {
	Study    string
	Chip     *chip.Spec
	Seed     int64
	Duration float64
	Points   []AblationPoint
}

// Render writes the sweep as a table.
func (r AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s (%s, %.0fs workload, seed %d)\n", r.Study, r.Chip.Name, r.Duration, r.Seed)
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Label,
			metrics.Percent(p.EnergySavings),
			metrics.Percent(p.TimePenalty),
			fmt.Sprint(p.Emergencies),
			fmt.Sprint(p.ClassFlips),
			fmt.Sprint(p.Migrations),
		})
	}
	ascii.Table(w, []string{"variant", "energy savings", "time penalty", "emergencies", "class flips", "migrations"}, rows)
}

// AblationStudy is one row of the ablation table.
type AblationStudy struct {
	// Name selects the study (cmd/ablate's -study).
	Name string
	// Title heads the rendered sweep (AblationResult.Study).
	Title string
	// Chip, when non-nil, is the chip the study always runs on.
	Chip *chip.Spec
	// variants builds the sweep's daemon variants for the chip.
	variants func(spec *chip.Spec) []variant
}

// variant is one labelled daemon configuration of a sweep; setup, if
// non-nil, prepares the machine before the stack attaches (e.g. applies
// aging drift).
type variant struct {
	label string
	cfg   daemon.Config
	setup func(*sim.Machine)
}

// AblationStudies lists every sweep in report order.
func AblationStudies() []AblationStudy {
	// with returns the default daemon configuration changed by set.
	with := func(set func(*daemon.Config)) daemon.Config {
		cfg := daemon.DefaultConfig()
		set(&cfg)
		return cfg
	}
	return []AblationStudy{
		{Name: "threshold", Title: "L3C classification threshold sweep",
			// Around the paper's 3K accesses per 1M cycles.
			variants: func(*chip.Spec) (vs []variant) {
				for _, th := range []float64{500, 1500, 3000, 6000, 12000, 1e9} {
					label := fmt.Sprintf("threshold %.0f/1Mcyc", th)
					if th >= 1e9 {
						label = "threshold inf (all CPU-class)"
					}
					vs = append(vs, variant{label: label, cfg: with(func(c *daemon.Config) { c.L3CThreshold = th })})
				}
				return vs
			}},
		{Name: "guard", Title: "voltage guard sweep",
			// Negative guards undercut the Table II envelope and must trip
			// voltage emergencies, demonstrating that it is tight.
			variants: func(*chip.Spec) (vs []variant) {
				for _, g := range []chip.Millivolts{30, 15, 5, 0, -10, -25} {
					vs = append(vs, variant{label: fmt.Sprintf("guard %+dmV", g), cfg: with(func(c *daemon.Config) { c.GuardMV = g })})
				}
				return vs
			}},
		{Name: "poll", Title: "monitoring period sweep",
			// Around the paper's ~0.4 s window.
			variants: func(*chip.Spec) (vs []variant) {
				for _, iv := range []float64{0.1, 0.4, 1.0, 3.0, 10.0} {
					vs = append(vs, variant{label: fmt.Sprintf("poll every %.1fs", iv), cfg: with(func(c *daemon.Config) { c.PollInterval = iv })})
				}
				return vs
			}},
		{Name: "hysteresis", Title: "classification hysteresis sweep",
			// Classification with and without the hysteresis band.
			variants: func(*chip.Spec) (vs []variant) {
				for _, hy := range []float64{0, 0.05, 0.10, 0.25} {
					vs = append(vs, variant{label: fmt.Sprintf("hysteresis %.0f%%", 100*hy), cfg: with(func(c *daemon.Config) { c.Hysteresis = hy })})
				}
				return vs
			}},
		{Name: "memfreq", Title: "memory-PMD frequency choice (X-Gene 2)", Chip: chip.XGene2Spec(),
			// The paper's 0.9 GHz deep-division point versus plain half
			// speed versus leaving memory PMDs at full speed.
			variants: func(*chip.Spec) (vs []variant) {
				for _, f := range []chip.MHz{900, 1200, 2400} {
					vs = append(vs, variant{label: fmt.Sprintf("memory PMDs @ %v", f), cfg: with(func(c *daemon.Config) { c.MemFreqMHz = f })})
				}
				return vs
			}},
		{Name: "relaxed", Title: "relaxed performance constraints (CPU-PMD frequency)",
			// The paper's "relaxed performance constraints" direction
			// (Sec. I): beyond the minimal-impact Optimal point, also
			// reducing the frequency of CPU-intensive PMDs buys further
			// energy at a visible slowdown.
			variants: func(spec *chip.Spec) []variant {
				cpu := func(f chip.MHz) daemon.Config { return with(func(c *daemon.Config) { c.CPUFreqMHz = f }) }
				return []variant{
					{label: "paper policy (CPU PMDs @ max)", cfg: cpu(0)},
					{label: fmt.Sprintf("CPU PMDs @ %v", spec.MaxFreq*3/4), cfg: cpu(spec.MaxFreq * 3 / 4)},
					{label: fmt.Sprintf("CPU PMDs @ %v (half)", spec.HalfFreq()), cfg: cpu(spec.HalfFreq())},
				}
			}},
		{Name: "protocol", Title: "fail-safe transition ordering (staged, 5 ticks/phase)",
			// The fail-safe ordering against the inverted
			// (reconfigure-first) one under staged transitions.
			variants: func(*chip.Spec) []variant {
				staged := func(unsafe bool) daemon.Config {
					return with(func(c *daemon.Config) { c.TransitionTicks, c.UnsafeOrder = 5, unsafe })
				}
				return []variant{
					{label: "raise -> reconfigure -> settle (paper)", cfg: staged(false)},
					{label: "reconfigure -> raise -> settle (inverted)", cfg: staged(true)},
				}
			}},
		{Name: "aging", Title: "aging drift vs voltage guard",
			// The daemon over the chip's lifetime: per age, the true
			// safe-Vmin requirement drifts per the aging model, under the
			// fresh-silicon guard (the paper's deployment, which must trip
			// emergencies on aged silicon) and the age-aware guard
			// (vmin.GuardForAge, safe at the cost of part of the savings).
			variants: func(spec *chip.Spec) (vs []variant) {
				aging := vmin.DefaultAging(spec)
				for _, years := range []float64{0, 3, 7} {
					drift := aging.DriftMV(years)
					setup := func(m *sim.Machine) { m.SetVminDrift(drift) }
					fresh := daemon.DefaultConfig()
					aware := with(func(c *daemon.Config) { c.GuardMV = aging.GuardForAge(spec, years) })
					vs = append(vs,
						variant{label: fmt.Sprintf("age %.0fy, fresh guard (+%dmV)", years, fresh.GuardMV), cfg: fresh, setup: setup},
						variant{label: fmt.Sprintf("age %.0fy, age-aware guard (+%dmV)", years, aware.GuardMV), cfg: aware, setup: setup})
				}
				return vs
			}},
		{Name: "migration", Title: "migration cost (paper: negligible)",
			// The paper's claim that the daemon's placement overhead "has
			// equal impact as a process migration of the Linux kernel":
			// each migrated thread stalls; realistic costs leave the
			// savings untouched, only absurd ones erode them.
			variants: func(*chip.Spec) (vs []variant) {
				for _, cost := range []float64{0, 0.0001, 0.005, 0.05, 1.0} {
					vs = append(vs, variant{
						label: fmt.Sprintf("migration cost %gms", 1000*cost),
						cfg:   daemon.DefaultConfig(),
						setup: func(m *sim.Machine) { m.SetMigrationPenalty(cost) },
					})
				}
				return vs
			}},
	}
}

// Ablate runs the named study of AblationStudies on spec, or on the
// study's own chip when it has one: one Baseline replay of a generated
// workload, then each variant as an independent cell of the campaign's
// worker pool. Each variant replays the workload on its own fresh
// machine, so results are identical for any worker width. An unknown name
// is an error.
func Ablate(ctx context.Context, cam Campaign, name string, spec *chip.Spec, duration float64, seed int64) (AblationResult, error) {
	var study *AblationStudy
	studies := AblationStudies()
	for i := range studies {
		if studies[i].Name == name {
			study = &studies[i]
		}
	}
	if study == nil {
		return AblationResult{}, fmt.Errorf("experiments: unknown ablation study %q", name)
	}
	if study.Chip != nil {
		spec = study.Chip
	}
	res := AblationResult{Study: study.Title, Chip: spec, Seed: seed, Duration: duration}
	wl := wlgen.Generate(spec, wlgen.Config{Duration: duration}, seed)
	base, err := Evaluate(spec, wl, Baseline)
	if err != nil {
		return res, err
	}
	res.Points, err = runCells(ctx, cam, study.variants(spec), func(_ context.Context, v variant) (AblationPoint, error) {
		s, err := replayVariant(spec, wl, v)
		if err != nil {
			return AblationPoint{}, err
		}
		st := s.D.Stats()
		return AblationPoint{
			Label:         v.label,
			EnergySavings: metrics.Savings(base.EnergyJ, s.M.Meter.Energy()),
			TimePenalty:   metrics.RelDiff(s.M.Now(), base.TimeSec),
			Emergencies:   len(s.M.Emergencies()),
			ClassFlips:    st.ClassFlips,
			Migrations:    st.Migrations,
		}, nil
	})
	return res, err
}

// replayVariant replays wl on a fresh machine of the chip under an
// Optimal stack whose daemon runs the variant's configuration.
func replayVariant(spec *chip.Spec, wl *wlgen.Workload, v variant) (*Stack, error) {
	m := sim.New(spec)
	if v.setup != nil {
		v.setup(m)
	}
	s, err := NewStack(m, Optimal, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := s.D.Reconfigure(v.cfg); err != nil {
		return nil, err
	}
	return s, replayArrivals(m, wl, "ablation variant "+v.label)
}
