// Command tradeoffs reproduces the paper's energy/performance trade-off
// studies: the clustered-vs-spreaded energy comparison of Fig. 7 and the
// energy and ED2P grids of Figs. 11 and 12 (every thread-scaling and
// frequency option, each at its own safe Vmin).
//
// Usage:
//
//	tradeoffs [-experiment fig7|fig11|fig12|all] [-chip xgene2|xgene3|both]
//	          [-placement clustered|spreaded] [-j N]
//
// -j sets the worker-pool width for the measurement campaigns; results
// are identical for any width.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/sim"
	"avfs/internal/vmin/store"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment: fig7, fig11, fig12 or all")
	chipFlag := flag.String("chip", "both", "chip: xgene2, xgene3 or both")
	placeFlag := flag.String("placement", "clustered", "allocation for fig11/fig12: clustered or spreaded")
	jobs := flag.Int("j", 0, "parallel worker cap (0 = adaptive: min(jobs, cores)) for the measurement campaigns")
	flag.Parse()

	specs := []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()}
	if *chipFlag != "both" {
		model, err := chip.ParseModel(*chipFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tradeoffs:", err)
			os.Exit(2)
		}
		specs = []*chip.Spec{chip.SpecFor(model)}
	}
	place, err := sim.ParsePlacement(*placeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tradeoffs:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	cam := experiments.Campaign{Workers: *jobs, Store: store.New("")}
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "tradeoffs %s: %v\n", name, err)
		os.Exit(1)
	}
	ran := false
	for _, spec := range specs {
		run := func(name string, fn func()) {
			if *exp != "all" && *exp != name {
				return
			}
			ran = true
			fmt.Printf("=== %s (%s) ===\n", name, spec.Name)
			fn()
			fmt.Println()
		}
		run("fig7", func() {
			r, err := experiments.Figure7Context(ctx, cam, spec)
			if err != nil {
				fail("fig7", err)
			}
			r.Render(os.Stdout)
		})
		if *exp == "all" || *exp == "fig11" || *exp == "fig12" {
			grid, err := experiments.EnergyGridContext(ctx, cam, spec, place)
			if err != nil {
				fail("fig11/fig12", err)
			}
			run("fig11", func() { grid.RenderEnergy(os.Stdout) })
			run("fig12", func() { grid.RenderED2P(os.Stdout) })
		}
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want fig7, fig11, fig12 or all)\n", *exp)
		os.Exit(2)
	}
}
