// Command characterize reproduces the paper's voltage-margins
// characterization: the safe-Vmin study of Fig. 3, the single-/two-core
// variation study of Fig. 4, the unsafe-region pfail curves of Fig. 5, and
// the factor-magnitude summary of Fig. 10, plus the Table I chip
// parameters.
//
// Usage:
//
//	characterize [-experiment fig3|fig4|fig5|fig10|table1|fleet|all]
//	             [-trials N] [-j N] [-progress] [-metrics FILE]
//
// -trials reduces the per-level run count from the paper's 1000 for faster
// exploration (the discovered Vmin values are identical in practice: the
// pfail model rises quickly below the safe point).
//
// -j sets the worker-pool width for the characterization campaigns; the
// default is one worker per available CPU, and the results are identical
// for any width. -progress prints periodic campaign progress to stderr,
// and -metrics writes a Prometheus snapshot of the runner telemetry after
// the experiments finish.
//
// Within one invocation the in-process characterization store memoizes
// datasets across experiments.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/experiments/runner"
	"avfs/internal/telemetry"
	"avfs/internal/telemetry/export"
	"avfs/internal/vmin/store"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment: fig3, fig4, fig5, fig10, table1, fleet or all")
	trials := flag.Int("trials", 0, "runs per voltage level (0 = the paper's 1000)")
	dies := flag.Int("dies", 100, "sampled dies for the fleet study")
	jobs := flag.Int("j", 0, "parallel worker cap (0 = adaptive: min(jobs, cores)) for the characterization campaigns")
	progress := flag.Bool("progress", false, "print campaign progress to stderr")
	metricsFile := flag.String("metrics", "", "write a Prometheus snapshot of the runner telemetry to this file")
	flag.Parse()

	st := runner.NewStats()
	reg := telemetry.NewRegistry()
	st.Instrument(reg)
	cache := store.New("")
	cache.Instrument(reg)
	cam := experiments.Campaign{Workers: *jobs, Stats: st, Store: cache}
	ctx := context.Background()
	if *progress {
		stop := st.StartProgress(os.Stderr, 2*time.Second)
		defer stop()
	}

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "characterize %s: %v\n", name, err)
		os.Exit(1)
	}
	ran := false
	run := func(name string, fn func()) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		fmt.Printf("=== %s ===\n", name)
		fn()
		fmt.Println()
	}

	run("table1", func() { experiments.TableI().Render(os.Stdout) })
	run("fig3", func() {
		r, err := experiments.Figure3Context(ctx, cam, *trials)
		if err != nil {
			fail("fig3", err)
		}
		r.Render(os.Stdout)
	})
	run("fig4", func() {
		r, err := experiments.Figure4Context(ctx, cam, *trials)
		if err != nil {
			fail("fig4", err)
		}
		r.Render(os.Stdout)
	})
	run("fig5", func() {
		r, err := experiments.Figure5Context(ctx, cam, *trials)
		if err != nil {
			fail("fig5", err)
		}
		r.Render(os.Stdout)
	})
	run("fig10", func() { experiments.Figure10().Render(os.Stdout) })
	run("fleet", func() {
		experiments.FleetStudy(chip.XGene2Spec(), *dies, 1).Render(os.Stdout)
		fmt.Println()
		experiments.FleetStudy(chip.XGene3Spec(), *dies, 1).Render(os.Stdout)
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want fig3, fig4, fig5, fig10, table1, fleet or all)\n", *exp)
		os.Exit(2)
	}
	if *metricsFile != "" {
		f, err := os.Create(*metricsFile)
		if err != nil {
			fail("metrics", err)
		}
		if err := export.Prometheus(f, reg); err != nil {
			f.Close()
			fail("metrics", err)
		}
		if err := f.Close(); err != nil {
			fail("metrics", err)
		}
		fmt.Fprintln(os.Stderr, "runner telemetry written to", *metricsFile)
	}
}
