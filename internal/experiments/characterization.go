package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"avfs/internal/ascii"
	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/sim"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 3 — safe Vmin of the 25 benchmarks across thread/frequency options.
// ---------------------------------------------------------------------------

// Fig3Entry is one benchmark's safe Vmin in one configuration.
type Fig3Entry struct {
	Bench    string
	SafeVmin chip.Millivolts
	// SafeFound is false when the characterization found no safe level at
	// all (nominal itself failed); SafeVmin is then meaningless.
	SafeFound bool
}

// Fig3Config is one (chip, frequency, threads) panel of Fig. 3.
type Fig3Config struct {
	Chip    *chip.Spec
	Freq    chip.MHz
	Threads int
	Entries []Fig3Entry
}

// SpreadMV returns the max-min spread of safe Vmin across benchmarks — the
// paper's headline observation is that this collapses to ≤10 mV in
// multicore runs.
func (c Fig3Config) SpreadMV() chip.Millivolts {
	var min, max chip.Millivolts
	seen := false
	for _, e := range c.Entries {
		if !e.SafeFound {
			continue // no safe level: excluded from the spread
		}
		if !seen || e.SafeVmin < min {
			min = e.SafeVmin
		}
		if !seen || e.SafeVmin > max {
			max = e.SafeVmin
		}
		seen = true
	}
	if !seen {
		return 0
	}
	return max - min
}

// Fig3Result holds every panel of the figure.
type Fig3Result struct {
	Configs []Fig3Config
}

// fig3Cell is one (panel, benchmark) characterization of Fig. 3.
type fig3Cell struct {
	panel int
	bench string
	cfg   *vmin.Config
}

// Figure3Context characterizes the 25 benchmarks on both chips at the
// paper's reported frequencies and thread-scaling options (8/4 threads on
// X-Gene 2 at 2.4/1.2/0.9 GHz; 32/16/8 threads on X-Gene 3 at 3/1.5 GHz).
// The characterizer's trial counts can be reduced for fast runs;
// trials<=0 uses the paper's 1000-run criterion. The (config, benchmark)
// cells are enumerated up front and dispatched through the campaign's
// bounded worker pool. Results are identical for any worker width.
func Figure3Context(ctx context.Context, cam Campaign, trials int) (Fig3Result, error) {
	ch := &vmin.Characterizer{SafeTrials: trials, UnsafeTrials: trials}
	panels, cells, err := fig3Cells()
	if err != nil {
		return Fig3Result{}, err
	}
	entries, err := runCells(ctx, cam, cells, func(_ context.Context, c fig3Cell) (Fig3Entry, error) {
		cz := cam.characterize(ch, c.cfg)
		return Fig3Entry{Bench: c.bench, SafeVmin: cz.SafeVmin, SafeFound: cz.SafeFound}, nil
	})
	if err != nil {
		return Fig3Result{}, err
	}
	for i, e := range entries {
		p := &panels[cells[i].panel]
		p.Entries = append(p.Entries, e)
	}
	return Fig3Result{Configs: panels}, nil
}

// fig3Cells enumerates Figure 3's panels and their (panel, benchmark)
// cells in campaign order.
func fig3Cells() ([]Fig3Config, []fig3Cell, error) {
	var panels []Fig3Config
	var cells []fig3Cell
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		threadOpts := []int{spec.Cores, spec.Cores / 2}
		if spec.Model == chip.XGene3 {
			threadOpts = append(threadOpts, spec.Cores/4)
		}
		for _, f := range clock.ReportedFrequencies(spec) {
			for _, n := range threadOpts {
				cores, err := sim.SpreadedCores(spec, n)
				if err != nil {
					return nil, nil, err
				}
				panel := len(panels)
				panels = append(panels, Fig3Config{Chip: spec, Freq: f, Threads: n})
				for _, b := range workload.CharacterizationSet() {
					cells = append(cells, fig3Cell{panel: panel, bench: b.Name, cfg: &vmin.Config{
						Spec:      spec,
						FreqClass: clock.ClassOf(spec, f),
						Cores:     cores,
						Bench:     b,
					}})
				}
			}
		}
	}
	return panels, cells, nil
}

// Render writes the figure as one table per panel. Benchmarks for which
// the characterization found no safe level are called out explicitly
// instead of being charted as if nominal were safe.
func (r Fig3Result) Render(w io.Writer) {
	for _, c := range r.Configs {
		fmt.Fprintf(w, "\n%s  %dT @ %v  (nominal %v, spread %dmV)\n",
			c.Chip.Name, c.Threads, c.Freq, c.Chip.NominalMV, c.SpreadMV())
		var labels []string
		var values []float64
		for _, e := range c.Entries {
			if !e.SafeFound {
				fmt.Fprintf(w, "  %s: no safe level found (nominal %v fails)\n", e.Bench, c.Chip.NominalMV)
				continue
			}
			labels = append(labels, e.Bench)
			values = append(values, float64(e.SafeVmin))
		}
		if len(labels) > 0 {
			ascii.BarChart(w, labels, values, 40)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 4 — single- and two-core executions: per-core safe regions.
// ---------------------------------------------------------------------------

// Fig4Cell is the safe Vmin of one benchmark on one core (or core pair).
type Fig4Cell struct {
	Bench    string
	Target   string // "core3" or "PMD2"
	SafeVmin chip.Millivolts
}

// Fig4Result holds the single-core and two-core sweeps of X-Gene 2 at
// maximum frequency, exposing the core-to-core and workload variation
// that multicore runs wash out.
type Fig4Result struct {
	Chip       *chip.Spec
	SingleCore []Fig4Cell
	TwoCore    []Fig4Cell
}

// fig4Cell is one (benchmark, core-or-PMD) characterization of Fig. 4.
type fig4Cell struct {
	single bool // true: single-core sweep; false: two-core (PMD) sweep
	bench  string
	target string
	cfg    *vmin.Config
}

// Figure4Context characterizes every benchmark on every individual core
// (top graphs) and on both cores of every PMD (bottom graphs) of the
// X-Gene 2 at 2.4 GHz, one campaign cell per characterization.
func Figure4Context(ctx context.Context, cam Campaign, trials int) (Fig4Result, error) {
	spec := chip.XGene2Spec()
	ch := &vmin.Characterizer{SafeTrials: trials, UnsafeTrials: trials}
	cells := fig4Cells(spec)
	vmins, err := runCells(ctx, cam, cells, func(_ context.Context, c fig4Cell) (chip.Millivolts, error) {
		cz := cam.characterize(ch, c.cfg)
		return cz.SafeVmin, nil
	})
	if err != nil {
		return Fig4Result{}, err
	}
	out := Fig4Result{Chip: spec}
	for i, v := range vmins {
		cell := Fig4Cell{Bench: cells[i].bench, Target: cells[i].target, SafeVmin: v}
		if cells[i].single {
			out.SingleCore = append(out.SingleCore, cell)
		} else {
			out.TwoCore = append(out.TwoCore, cell)
		}
	}
	return out, nil
}

// fig4Cells enumerates Figure 4's single-core and PMD cells on spec in
// campaign order.
func fig4Cells(spec *chip.Spec) []fig4Cell {
	var cells []fig4Cell
	for _, b := range workload.CharacterizationSet() {
		for c := 0; c < spec.Cores; c++ {
			cells = append(cells, fig4Cell{
				single: true, bench: b.Name, target: fmt.Sprintf("core%d", c),
				cfg: &vmin.Config{
					Spec:      spec,
					FreqClass: clock.FullSpeed,
					Cores:     []chip.CoreID{chip.CoreID(c)},
					Bench:     b,
				},
			})
		}
		for p := 0; p < spec.PMDs(); p++ {
			c0, c1 := spec.CoresOf(chip.PMDID(p))
			cells = append(cells, fig4Cell{
				single: false, bench: b.Name, target: fmt.Sprintf("PMD%d", p),
				cfg: &vmin.Config{
					Spec:      spec,
					FreqClass: clock.FullSpeed,
					Cores:     []chip.CoreID{c0, c1},
					Bench:     b,
				},
			})
		}
	}
	return cells
}

// variation summarizes a cell group: the max-min spread.
func variation(cells []Fig4Cell, key func(Fig4Cell) string) map[string]chip.Millivolts {
	min := map[string]chip.Millivolts{}
	max := map[string]chip.Millivolts{}
	for _, c := range cells {
		k := key(c)
		if v, ok := min[k]; !ok || c.SafeVmin < v {
			min[k] = c.SafeVmin
		}
		if v, ok := max[k]; !ok || c.SafeVmin > v {
			max[k] = c.SafeVmin
		}
	}
	out := map[string]chip.Millivolts{}
	for k := range min {
		out[k] = max[k] - min[k]
	}
	return out
}

// WorkloadVariationMV returns, per core, the spread of safe Vmin across
// benchmarks in the single-core sweep (the paper reports up to 40 mV).
func (r Fig4Result) WorkloadVariationMV() chip.Millivolts {
	var worst chip.Millivolts
	for _, v := range variation(r.SingleCore, func(c Fig4Cell) string { return c.Target }) {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// CoreVariationMV returns, per benchmark, the spread of safe Vmin across
// cores in the single-core sweep (the paper reports up to 30 mV).
func (r Fig4Result) CoreVariationMV() chip.Millivolts {
	var worst chip.Millivolts
	for _, v := range variation(r.SingleCore, func(c Fig4Cell) string { return c.Bench }) {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// Render writes per-target summaries of both sweeps.
func (r Fig4Result) Render(w io.Writer) {
	render := func(title string, cells []Fig4Cell) {
		fmt.Fprintf(w, "\n%s (%s @ %v)\n", title, r.Chip.Name, r.Chip.MaxFreq)
		byTarget := map[string][]chip.Millivolts{}
		var targets []string
		for _, c := range cells {
			if _, ok := byTarget[c.Target]; !ok {
				targets = append(targets, c.Target)
			}
			byTarget[c.Target] = append(byTarget[c.Target], c.SafeVmin)
		}
		sort.Strings(targets)
		rows := make([][]string, 0, len(targets))
		for _, t := range targets {
			vs := byTarget[t]
			min, max := vs[0], vs[0]
			for _, v := range vs {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
			rows = append(rows, []string{t, min.String(), max.String(), fmt.Sprintf("%dmV", max-min)})
		}
		ascii.Table(w, []string{"target", "best Vmin", "worst Vmin", "workload spread"}, rows)
	}
	render("Single-core executions", r.SingleCore)
	render("Two-core executions", r.TwoCore)
	fmt.Fprintf(w, "\nworkload variation up to %dmV, core-to-core variation up to %dmV\n",
		r.WorkloadVariationMV(), r.CoreVariationMV())
}

// ---------------------------------------------------------------------------
// Figure 5 — cumulative probability of failure below the safe Vmin.
// ---------------------------------------------------------------------------

// Fig5Line is the benchmark-averaged pfail curve of one configuration.
type Fig5Line struct {
	Label   string
	Chip    *chip.Spec
	Freq    chip.MHz
	Threads int
	Place   sim.Placement
	// Voltage[i] and PFail[i] are the averaged curve points, descending
	// voltage.
	Voltage []chip.Millivolts
	PFail   []float64
}

// NoSafeVmin is the sentinel returned by Fig5Line.SafeVmin when the
// averaged curve has no genuinely clean level — including the empty curve.
const NoSafeVmin chip.Millivolts = -1

// SafeVmin returns the lowest voltage whose averaged pfail is still zero:
// the safe Vmin of the configuration averaged over benchmarks. If even the
// first (highest) level already has nonzero pfail, or the curve is empty,
// it returns NoSafeVmin rather than pretending an unsafe level is clean.
func (l Fig5Line) SafeVmin() chip.Millivolts {
	safe := NoSafeVmin
	for i, p := range l.PFail {
		if p != 0 {
			break
		}
		safe = l.Voltage[i]
	}
	return safe
}

// SafeVminOrErr is SafeVmin with a typed failure: instead of the
// NoSafeVmin sentinel value it returns an error wrapping vmin.ErrNoSafeVmin
// (re-exported as avfs.ErrNoSafeVmin).
func (l Fig5Line) SafeVminOrErr() (chip.Millivolts, error) {
	if v := l.SafeVmin(); v != NoSafeVmin {
		return v, nil
	}
	return 0, fmt.Errorf("%w: %dT %v averaged curve has no clean level",
		vmin.ErrNoSafeVmin, l.Threads, l.Place)
}

// Fig5Result holds all configuration lines.
type Fig5Result struct {
	Lines []Fig5Line
}

// fig5Cell is one (line, benchmark) characterization of Fig. 5.
type fig5Cell struct {
	line int
	cfg  *vmin.Config
}

// fig5Curve is one benchmark's cumulative-pfail curve within a line.
type fig5Curve struct {
	pts map[chip.Millivolts]float64
	// safe/hasSafe mirror Characterization.SafeVmin/SafeFound; last is the
	// lowest measured level (complete failure continues below it).
	safe    chip.Millivolts
	last    chip.Millivolts
	hasSafe bool
}

// Figure5Context sweeps the unsafe region for the paper's frequency,
// thread scaling and core allocation options on both chips and averages
// the pfail curves over the 25 benchmarks. The per-benchmark sweeps of
// every line run as independent campaign cells; averaging happens
// afterwards in benchmark order, so the curve is bit-identical for any
// worker width.
func Figure5Context(ctx context.Context, cam Campaign, trials int) (Fig5Result, error) {
	ch := &vmin.Characterizer{SafeTrials: trials, UnsafeTrials: trials}
	lines, cells, err := fig5Cells()
	if err != nil {
		return Fig5Result{}, err
	}
	curves, err := runCells(ctx, cam, cells, func(_ context.Context, c fig5Cell) (fig5Curve, error) {
		cz := cam.characterize(ch, c.cfg)
		cv := fig5Curve{pts: map[chip.Millivolts]float64{}, safe: cz.SafeVmin, hasSafe: cz.SafeFound}
		for i, pt := range cz.CumulativePFail() {
			cv.pts[pt.Voltage] = pt.PFail
			if i == 0 || pt.Voltage < cv.last {
				cv.last = pt.Voltage
			}
		}
		return cv, nil
	})
	if err != nil {
		return Fig5Result{}, err
	}
	byLine := make([][]fig5Curve, len(lines))
	for i, cv := range curves {
		byLine[cells[i].line] = append(byLine[cells[i].line], cv)
	}
	// Average each line over the union of its voltage levels. Levels above
	// a benchmark's safe point count as pfail 0 for it; levels below its
	// last recorded point count as pfail 1 (complete failure continues
	// downwards). A benchmark with no safe level at all contributes its
	// measured pfail at every level it covers — never an implicit 0.
	for li := range lines {
		line := &lines[li]
		curves := byLine[li]
		levelSet := map[chip.Millivolts]bool{}
		for _, cv := range curves {
			for v := range cv.pts {
				levelSet[v] = true
			}
		}
		var levels []chip.Millivolts
		for v := range levelSet {
			levels = append(levels, v)
		}
		sort.Slice(levels, func(i, j int) bool { return levels[i] > levels[j] })
		for _, v := range levels {
			var sum float64
			for _, cv := range curves {
				switch {
				case cv.hasSafe && v >= cv.safe:
					// pfail 0 above the safe point
				case v < cv.last:
					sum += 1
				default:
					sum += cv.pts[v]
				}
			}
			line.Voltage = append(line.Voltage, v)
			line.PFail = append(line.PFail, sum/float64(len(curves)))
		}
	}
	return Fig5Result{Lines: lines}, nil
}

// fig5Cells enumerates Figure 5's lines and their (line, benchmark) cells
// in campaign order.
func fig5Cells() ([]Fig5Line, []fig5Cell, error) {
	type cfg struct {
		threadsDiv int
		place      sim.Placement
	}
	var lines []Fig5Line
	var cells []fig5Cell
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		for _, f := range clock.ReportedFrequencies(spec) {
			for _, c := range []cfg{
				{1, sim.Clustered},
				{2, sim.Spreaded},
				{2, sim.Clustered},
			} {
				n := spec.Cores / c.threadsDiv
				cores, err := sim.CoresFor(spec, c.place, n)
				if err != nil {
					return nil, nil, err
				}
				label := fmt.Sprintf("%s %dT @ %v", spec.Name, n, f)
				if c.threadsDiv > 1 {
					label = fmt.Sprintf("%s %dT(%v) @ %v", spec.Name, n, c.place, f)
				}
				line := len(lines)
				lines = append(lines, Fig5Line{
					Label: label, Chip: spec, Freq: f,
					Threads: n, Place: c.place,
				})
				for _, b := range workload.CharacterizationSet() {
					cells = append(cells, fig5Cell{line: line, cfg: &vmin.Config{
						Spec:      spec,
						FreqClass: clock.ClassOf(spec, f),
						Cores:     cores,
						Bench:     b,
					}})
				}
			}
		}
	}
	return lines, cells, nil
}

// Render writes each line as voltage → pfail pairs.
func (r Fig5Result) Render(w io.Writer) {
	for _, l := range r.Lines {
		safe := "none"
		if v := l.SafeVmin(); v != NoSafeVmin {
			safe = v.String()
		}
		fmt.Fprintf(w, "\n%s  (avg over 25 benchmarks, safe Vmin %s)\n", l.Label, safe)
		rows := make([][]string, 0, len(l.Voltage))
		for i := range l.Voltage {
			rows = append(rows, []string{
				l.Voltage[i].String(),
				fmt.Sprintf("%.1f%%", 100*l.PFail[i]),
			})
		}
		ascii.Table(w, []string{"voltage", "pfail"}, rows)
	}
}

// ---------------------------------------------------------------------------
// Figure 10 — magnitude of the safe-Vmin dependence per factor.
// ---------------------------------------------------------------------------

// Fig10Result quantifies each factor's impact on the safe Vmin as a
// fraction of the nominal voltage (X-Gene 2, like the paper).
type Fig10Result struct {
	Chip *chip.Spec
	// Fractions of nominal voltage.
	Workload       float64
	CoreAllocation float64
	FreqSkipStep   float64
	ClockDivision  float64
}

// Figure10 derives the factor magnitudes from the Vmin model the same way
// the paper derives them from its measurements.
func Figure10() Fig10Result {
	spec := chip.XGene2Spec()
	nom := float64(spec.NominalMV)

	// Workload: the worst benchmark margin at the 4-thread damping.
	var worst int
	for _, b := range workload.CharacterizationSet() {
		if -b.VminOffsetMV > worst {
			worst = -b.VminOffsetMV
		}
	}
	wl := float64(worst) // damping at 3-4 threads is 1.0 on X-Gene 2

	alloc := float64(vmin.ClassEnvelope(spec, clock.FullSpeed, spec.PMDs()) -
		vmin.ClassEnvelope(spec, clock.FullSpeed, 1))
	skip := float64(vmin.ClassEnvelope(spec, clock.FullSpeed, spec.PMDs()) -
		vmin.ClassEnvelope(spec, clock.HalfSpeed, spec.PMDs()))
	div := float64(vmin.ClassEnvelope(spec, clock.FullSpeed, spec.PMDs()) -
		vmin.ClassEnvelope(spec, clock.DividedLow, spec.PMDs()))

	return Fig10Result{
		Chip:           spec,
		Workload:       wl / nom,
		CoreAllocation: alloc / nom,
		FreqSkipStep:   skip / nom,
		ClockDivision:  div / nom,
	}
}

// Render writes the factor bars.
func (r Fig10Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Safe-Vmin dependence magnitudes (%s, %% of nominal %v)\n", r.Chip.Name, r.Chip.NominalMV)
	ascii.BarChart(w,
		[]string{"workload", "core allocation", "frequency step (skipping)", "clock division"},
		[]float64{100 * r.Workload, 100 * r.CoreAllocation, 100 * r.FreqSkipStep, 100 * r.ClockDivision},
		40)
}
