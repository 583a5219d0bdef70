package experiments

import (
	"context"
	"fmt"
	"io"

	"avfs/internal/ascii"
	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/metrics"
	"avfs/internal/sim"
	"avfs/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 7 — energy of clustered vs spreaded allocation, 4 threads.
// ---------------------------------------------------------------------------

// Fig7Entry is one benchmark's energy under both allocations and the
// relative difference (positive: clustered needs more energy, i.e. the
// program prefers spreading; negative: spreading needs more energy).
type Fig7Entry struct {
	Bench           string
	ClusteredJ      float64
	SpreadedJ       float64
	DiffFrac        float64 // (clustered-spreaded)/spreaded
	MemoryIntensive bool
}

// Fig7Result holds the figure for one chip at maximum frequency and
// nominal voltage (the paper shows X-Gene 2 with 4 threads).
type Fig7Result struct {
	Chip    *chip.Spec
	Threads int
	Entries []Fig7Entry
}

// Figure7Context measures every characterization benchmark with
// half-of-half threads (4 on X-Gene 2) under both allocations: each
// benchmark's clustered+spreaded pair is one independent campaign cell.
func Figure7Context(ctx context.Context, cam Campaign, spec *chip.Spec) (Fig7Result, error) {
	threads := spec.Cores / 2
	benches := workload.SortByMemoryIntensity(workload.CharacterizationSet())
	entries, err := runCells(ctx, cam, benches, func(_ context.Context, b *workload.Benchmark) (Fig7Entry, error) {
		cl, err := Measure(RunSpec{
			Chip: spec, Bench: b, Threads: threads,
			Placement: sim.Clustered, Freq: spec.MaxFreq,
		})
		if err != nil {
			return Fig7Entry{}, err
		}
		sp, err := Measure(RunSpec{
			Chip: spec, Bench: b, Threads: threads,
			Placement: sim.Spreaded, Freq: spec.MaxFreq,
		})
		if err != nil {
			return Fig7Entry{}, err
		}
		return Fig7Entry{
			Bench:           b.Name,
			ClusteredJ:      cl.EnergyJ,
			SpreadedJ:       sp.EnergyJ,
			DiffFrac:        metrics.RelDiff(cl.EnergyJ, sp.EnergyJ),
			MemoryIntensive: b.MemoryIntensive(),
		}, nil
	})
	if err != nil {
		return Fig7Result{}, err
	}
	return Fig7Result{Chip: spec, Threads: threads, Entries: entries}, nil
}

// Render writes the energy pairs ordered from CPU- to memory-intensive,
// with the paper's percentage line.
func (r Fig7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Energy, %dT clustered vs spreaded (%s @ %v, nominal voltage)\n",
		r.Threads, r.Chip.Name, r.Chip.MaxFreq)
	rows := make([][]string, 0, len(r.Entries))
	for _, e := range r.Entries {
		cls := "cpu"
		if e.MemoryIntensive {
			cls = "memory"
		}
		rows = append(rows, []string{
			e.Bench,
			fmt.Sprintf("%.1f", e.ClusteredJ),
			fmt.Sprintf("%.1f", e.SpreadedJ),
			metrics.Percent(e.DiffFrac),
			cls,
		})
	}
	ascii.Table(w, []string{"benchmark", "clustered (J)", "spreaded (J)", "clustered vs spreaded", "class"}, rows)
}

// ---------------------------------------------------------------------------
// Figures 11 & 12 — energy and ED2P across thread/frequency options.
// ---------------------------------------------------------------------------

// GridCell is one measured configuration of the Fig. 11/12 grids.
type GridCell struct {
	Bench   string
	Threads int
	Freq    chip.MHz
	// AppliedMV is the configuration's safe Vmin the run executed at.
	AppliedMV chip.Millivolts
	EnergyJ   float64
	Runtime   float64
	ED2P      float64
}

// GridResult is the energy/ED2P grid of one chip: the five representative
// benchmarks, at all thread-scaling options and reported frequencies, each
// at its own safe Vmin.
type GridResult struct {
	Chip      *chip.Spec
	Placement sim.Placement
	Cells     []GridCell
}

// EnergyGridContext measures the Fig. 11 grid on one chip: every
// (benchmark, threads, frequency) combination at the configuration's safe
// Vmin. The same data renders Fig. 12 via the ED2P field. The cells are
// enumerated up front and measured through the campaign's worker pool.
func EnergyGridContext(ctx context.Context, cam Campaign, spec *chip.Spec, place sim.Placement) (GridResult, error) {
	var specs []RunSpec
	for _, b := range FiveBenchmarks() {
		for _, n := range ThreadOptions(spec) {
			for _, f := range clock.ReportedFrequencies(spec) {
				specs = append(specs, RunSpec{
					Chip: spec, Bench: b, Threads: n,
					Placement: place, Freq: f,
					Voltage: VoltageSafeVmin,
				})
			}
		}
	}
	cells, err := runCells(ctx, cam, specs, func(_ context.Context, rs RunSpec) (GridCell, error) {
		res, err := Measure(rs)
		if err != nil {
			return GridCell{}, err
		}
		return GridCell{
			Bench: rs.Bench.Name, Threads: rs.Threads, Freq: rs.Freq,
			AppliedMV: res.AppliedMV,
			EnergyJ:   res.EnergyJ,
			Runtime:   res.Runtime,
			ED2P:      res.ED2P(),
		}, nil
	})
	if err != nil {
		return GridResult{}, err
	}
	return GridResult{Chip: spec, Placement: place, Cells: cells}, nil
}

// Cell returns the grid cell for a benchmark/threads/frequency combination.
func (r GridResult) Cell(bench string, threads int, f chip.MHz) (GridCell, bool) {
	for _, c := range r.Cells {
		if c.Bench == bench && c.Threads == threads && c.Freq == f {
			return c, true
		}
	}
	return GridCell{}, false
}

// RenderEnergy writes the Fig. 11 table (energy in joules).
func (r GridResult) RenderEnergy(w io.Writer) {
	r.render(w, "Energy (J)", func(c GridCell) float64 { return c.EnergyJ })
}

// RenderED2P writes the Fig. 12 table (ED2P in J·s²).
func (r GridResult) RenderED2P(w io.Writer) {
	r.render(w, "ED2P (J*s^2)", func(c GridCell) float64 { return c.ED2P })
}

func (r GridResult) render(w io.Writer, what string, val func(GridCell) float64) {
	fmt.Fprintf(w, "%s per configuration (%s, %v allocation, each at its safe Vmin)\n",
		what, r.Chip.Name, r.Placement)
	freqs := clock.ReportedFrequencies(r.Chip)
	headers := []string{"benchmark", "threads"}
	for _, f := range freqs {
		headers = append(headers, f.String())
	}
	var rows [][]string
	for _, b := range FiveBenchmarks() {
		for _, n := range ThreadOptions(r.Chip) {
			row := []string{b.Name, fmt.Sprintf("%dT", n)}
			for _, f := range freqs {
				c, ok := r.Cell(b.Name, n, f)
				if !ok {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.4g", val(c)))
			}
			rows = append(rows, row)
		}
	}
	ascii.Table(w, headers, rows)
}

// BestFreq returns the frequency with the lowest value of the metric for a
// benchmark at a thread count (used by tests to check the paper's
// crossover: CPU-intensive best at max frequency, memory-intensive best at
// a reduced one).
func (r GridResult) BestFreq(bench string, threads int, metric func(GridCell) float64) chip.MHz {
	best := chip.MHz(0)
	bestV := 0.0
	for _, c := range r.Cells {
		if c.Bench != bench || c.Threads != threads {
			continue
		}
		if best == 0 || metric(c) < bestV {
			best, bestV = c.Freq, metric(c)
		}
	}
	return best
}
