// Command evaluate reproduces the paper's system-level evaluation
// (Sec. VI-B): it generates a random server workload, replays it under the
// four system configurations (Baseline, Safe Vmin, Placement, Optimal) and
// prints Tables III/IV plus the Fig. 14/15 timelines.
//
// Usage:
//
//	evaluate [-chip xgene2|xgene3|both] [-duration 3600] [-seed 42]
//	         [-fig14] [-fig15] [-seeds N] [-csv DIR] [-j N]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-instant [-node NM] [-scaling cons|itrs] [-sweep-nodes]]
//
// -j sets the worker-pool width: the four configuration replays (or the
// seeds of the robustness study) run in parallel, with results identical
// for any width. -cpuprofile and -memprofile write pprof profiles
// covering the whole campaign.
//
// -instant answers the Table IV comparison from the closed-form
// surrogate tier instead of replaying the workload: after a one-time
// model fit, every (configuration, tech node) cell is a microsecond
// query. -node projects the chip onto a 28/16/7nm technology node under
// the -scaling roadmap ("cons" or "itrs"); -sweep-nodes prints the whole
// node x roadmap grid.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/export"
	"avfs/internal/profiling"
	"avfs/internal/surrogate"
	"avfs/internal/vmin/store"
	"avfs/internal/wlgen"
)

// sanitizeChip turns a chip name into a directory fragment.
func sanitizeChip(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), " ", "-")
}

// main defers to run so profile flushing (and any other deferred cleanup)
// happens before the process exits.
func main() {
	os.Exit(run())
}

func run() int {
	chipFlag := flag.String("chip", "both", "chip to evaluate: xgene2, xgene3 or both")
	duration := flag.Float64("duration", 3600, "workload duration in seconds")
	seed := flag.Int64("seed", 42, "workload generator seed")
	fig14 := flag.Bool("fig14", false, "also render the Fig. 14 power timeline")
	fig15 := flag.Bool("fig15", false, "also render the Fig. 15 load timeline")
	seeds := flag.Int("seeds", 0, "run the multi-seed robustness study over N seeds instead of the table")
	csvDir := flag.String("csv", "", "also export summary and timelines as CSV files into this directory")
	jobs := flag.Int("j", 0, "parallel worker cap (0 = adaptive: min(jobs, cores)) for the configuration replays")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file")
	instant := flag.Bool("instant", false, "answer the Table IV comparison from the closed-form surrogate tier instead of simulating")
	nodeFlag := flag.String("node", "native", `technology node for -instant: "native", "28nm", "16nm" or "7nm"`)
	scalingFlag := flag.String("scaling", "cons", `tech-node scaling roadmap for -instant: "cons" (conservative) or "itrs"`)
	sweepNodes := flag.Bool("sweep-nodes", false, "with -instant: sweep every tech node under both scaling roadmaps")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
		}
	}()

	ctx := context.Background()
	cam := experiments.Campaign{Workers: *jobs, Store: store.New("")}
	specs, err := chipsFor(*chipFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, spec := range specs {
		if *instant || *sweepNodes {
			if err := runInstant(spec, *duration, *seed, *nodeFlag, *scalingFlag, *sweepNodes); err != nil {
				fmt.Fprintln(os.Stderr, "evaluate:", err)
				return 1
			}
			fmt.Println()
			continue
		}
		if *seeds > 0 {
			var list []int64
			for i := 0; i < *seeds; i++ {
				list = append(list, *seed+int64(i))
			}
			st, err := experiments.RunSeedStudyContext(ctx, cam, spec, *duration, list)
			if err != nil {
				fmt.Fprintln(os.Stderr, "evaluate:", err)
				return 1
			}
			st.Render(os.Stdout)
			fmt.Println()
			continue
		}
		wl := wlgen.Generate(spec, wlgen.Config{Duration: *duration}, *seed)
		fmt.Printf("generated workload: %d processes, %d threads total, %.0f%% memory-intensive\n",
			wl.TotalProcesses(), wl.TotalThreads(), 100*wl.MemoryIntensiveShare())
		set, err := experiments.EvaluateAllContext(ctx, cam, spec, wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			return 1
		}
		set.Render(os.Stdout)
		if *csvDir != "" {
			dir := filepath.Join(*csvDir, sanitizeChip(spec.Name))
			if err := export.EvalSet(dir, set); err != nil {
				fmt.Fprintln(os.Stderr, "evaluate: csv export:", err)
				return 1
			}
			fmt.Println("CSV written to", dir)
		}
		fmt.Println()
		set.RenderBreakdown(os.Stdout)
		if *fig14 {
			fmt.Println()
			set.RenderFig14(os.Stdout, 100)
		}
		if *fig15 {
			fmt.Println()
			set.RenderFig15(os.Stdout, 100)
		}
		fmt.Println()
	}
	return 0
}

// runInstant answers the Table IV comparison from the surrogate tier:
// one workload, every system configuration, on the native chip or a
// grid of technology-node projections. Queries are closed-form — the
// printed elapsed time covers the whole grid after the one-time fit.
func runInstant(spec *chip.Spec, duration float64, seed int64, nodeStr, scalingStr string, sweep bool) error {
	wl := wlgen.Generate(spec, wlgen.Config{Duration: duration}, seed)
	fmt.Printf("generated workload: %d processes, %d threads total, %.0f%% memory-intensive\n",
		wl.TotalProcesses(), wl.TotalThreads(), 100*wl.MemoryIntensiveShare())

	fitStart := time.Now()
	model, err := surrogate.NewStore("").Get(spec, surrogate.FitConfig{})
	if err != nil {
		return err
	}
	fitDur := time.Since(fitStart)

	type variant struct {
		label string
		node  surrogate.TechNode
		sm    surrogate.ScalingModel
	}
	var variants []variant
	if sweep {
		variants = append(variants, variant{"native", 0, surrogate.CONS})
		for _, sm := range []surrogate.ScalingModel{surrogate.CONS, surrogate.ITRS} {
			for _, n := range surrogate.Nodes() {
				variants = append(variants, variant{n.String(), n, sm})
			}
		}
	} else {
		node, err := surrogate.ParseTechNode(nodeStr)
		if err != nil {
			return err
		}
		sm, err := surrogate.ParseScalingModel(scalingStr)
		if err != nil {
			return err
		}
		label := "native"
		if node != 0 {
			label = node.String()
		}
		variants = append(variants, variant{label, node, sm})
	}

	fmt.Printf("\ninstant estimates (%s, closed-form surrogate; fit %v):\n", spec.Name, fitDur.Round(time.Millisecond))
	fmt.Printf("%-8s %-8s %-10s %9s %8s %11s %8s\n",
		"node", "scaling", "config", "time(s)", "avg W", "energy(J)", "vs base")
	queryStart := time.Now()
	for _, v := range variants {
		est, err := surrogate.NewEstimator(spec, model, v.node, v.sm)
		if err != nil {
			return err
		}
		base := 0.0
		for _, cfg := range experiments.SystemConfigs() {
			se := est.EstimateWorkload(wl, cfg)
			if cfg == experiments.Baseline {
				base = se.EnergyJ
			}
			saved := "-"
			if cfg != experiments.Baseline && base > 0 {
				saved = fmt.Sprintf("%+.1f%%", 100*(se.EnergyJ-base)/base)
			}
			fmt.Printf("%-8s %-8s %-10s %9.1f %8.2f %11.1f %8s\n",
				v.label, v.sm, cfg, se.Seconds, se.AvgPowerW, se.EnergyJ, saved)
		}
	}
	fmt.Printf("%d cells answered in %v\n",
		4*len(variants), time.Since(queryStart).Round(time.Microsecond))
	return nil
}

// chipsFor resolves the -chip flag: a chip.ParseModel name or both.
func chipsFor(name string) ([]*chip.Spec, error) {
	if name == "both" {
		return []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()}, nil
	}
	model, err := chip.ParseModel(name)
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w, or both", err)
	}
	return []*chip.Spec{chip.SpecFor(model)}, nil
}
