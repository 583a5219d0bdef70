// Command ablate runs the design-choice ablation and extension studies:
// the daemon sweeps of experiments.AblationStudies (classification
// threshold, voltage guard, monitoring period, hysteresis band,
// memory-PMD frequency, relaxed performance, fail-safe transition
// ordering, aging drift, migration cost), each through experiments.Ablate,
// and the power-capping comparison. Each sweep replays one fixed random
// workload under daemon variants and compares energy, time and safety
// against the Baseline. The memory-PMD frequency sweep always runs on
// X-Gene 2, whatever -chip says.
//
// Usage:
//
//	ablate [-study threshold|guard|poll|hysteresis|memfreq|relaxed|
//	        protocol|aging|migration|capping|all]
//	       [-chip xgene2|xgene3] [-duration 900] [-seed 42] [-j N]
//	       [-cache-dir DIR] [-cpuprofile FILE] [-memprofile FILE]
//
// -j sets the worker-pool width used to run a sweep's variants in
// parallel; results are identical for any width. -cache-dir persists any
// Monte Carlo characterization datasets the studies request (see
// EXPERIMENTS.md). -cpuprofile and -memprofile write pprof profiles
// covering the whole run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/profiling"
	"avfs/internal/vmin/store"
)

// main defers to run so profile flushing (and any other deferred cleanup)
// happens before the process exits.
func main() {
	os.Exit(run())
}

func run() int {
	study := flag.String("study", "all", "threshold, guard, poll, hysteresis, memfreq, relaxed, protocol, aging, migration, capping or all")
	chipFlag := flag.String("chip", "xgene3", "chip: xgene2 or xgene3")
	duration := flag.Float64("duration", 900, "workload duration in seconds")
	seed := flag.Int64("seed", 42, "workload seed")
	jobs := flag.Int("j", 0, "parallel worker cap (0 = adaptive: min(jobs, cores)) per sweep")
	cacheDir := flag.String("cache-dir", "", "persist characterization datasets under this directory (default: in-process memoization only)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file")
	flag.Parse()

	model, err := chip.ParseModel(*chipFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ablate:", err)
		return 2
	}
	spec := chip.SpecFor(model)

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ablate:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "ablate:", err)
		}
	}()

	ctx := context.Background()
	cam := experiments.Campaign{Workers: *jobs, Store: store.New(*cacheDir)}

	ran := false
	for _, st := range experiments.AblationStudies() {
		if *study != "all" && *study != st.Name {
			continue
		}
		ran = true
		res, err := experiments.Ablate(ctx, cam, st.Name, spec, *duration, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablate %s: %v\n", st.Name, err)
			return 1
		}
		res.Render(os.Stdout)
		fmt.Println()
	}
	if *study == "all" || *study == "capping" {
		ran = true
		st, err := experiments.RunCapStudyContext(ctx, cam, spec, *duration, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablate capping: %v\n", err)
			return 1
		}
		st.Render(os.Stdout)
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown study %q\n", *study)
		return 2
	}
	return 0
}
