// Command classify reproduces the paper's workload-classification studies:
// the contention-sensitivity ratios of Fig. 8 and the L3C access rates and
// 3K-threshold classification of Fig. 9.
//
// Usage:
//
//	classify [-experiment fig8|fig9|all] [-chip xgene2|xgene3]
package main

import (
	"flag"
	"fmt"
	"os"

	"avfs/internal/chip"
	"avfs/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment: fig8, fig9 or all")
	chipFlag := flag.String("chip", "xgene3", "chip: xgene2 or xgene3")
	flag.Parse()

	model, err := chip.ParseModel(*chipFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(2)
	}
	spec := chip.SpecFor(model)

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

	run("fig8", func() { experiments.Figure8(spec).Render(os.Stdout) })
	run("fig9", func() { experiments.Figure9(spec).Render(os.Stdout) })

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want fig8, fig9 or all)\n", *exp)
		os.Exit(2)
	}
}
