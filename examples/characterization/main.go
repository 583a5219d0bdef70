// Characterization runs the paper's voltage-margins methodology on a few
// configurations through the public API: walk the voltage down, find the
// safe Vmin (the lowest level passing every run), then sweep the unsafe
// region and report pfail and the fault mix per level — the Sec. III flow
// behind Figs. 3-5.
//
//	go run ./examples/characterization
package main

import (
	"fmt"

	"avfs"
)

func main() {
	spec := avfs.Spec(avfs.XGene3)
	ch := &avfs.Characterizer{SafeTrials: 500, UnsafeTrials: 60}

	fmt.Printf("safe Vmin characterization on %s (nominal %v)\n\n", spec.Name, spec.NominalMV)

	for _, cfg := range []struct {
		label   string
		threads int
		spread  bool
		fc      avfs.FreqClass
		bench   string
	}{
		{"32T @ 3GHz, CG", 32, false, avfs.FullSpeed, "CG"},
		{"32T @ 3GHz, namd copies", 32, false, avfs.FullSpeed, "namd"},
		{"16T clustered @ 3GHz, CG", 16, false, avfs.FullSpeed, "CG"},
		{"16T spreaded @ 3GHz, CG", 16, true, avfs.FullSpeed, "CG"},
		{"32T @ 1.5GHz, CG", 32, false, avfs.HalfSpeed, "CG"},
		{"1T @ 3GHz, namd (core 0)", 1, false, avfs.FullSpeed, "namd"},
	} {
		var cores []avfs.CoreID
		var err error
		if cfg.spread {
			cores, err = avfs.SpreadedAllocation(avfs.XGene3, cfg.threads)
		} else {
			cores, err = avfs.ClusteredAllocation(avfs.XGene3, cfg.threads)
		}
		if err != nil {
			panic(err)
		}
		bench, err := avfs.BenchmarkByName(cfg.bench)
		if err != nil {
			panic(err)
		}
		cz := ch.Characterize(&avfs.VminConfig{
			Spec:      spec,
			FreqClass: cfg.fc,
			Cores:     cores,
			Bench:     bench,
		})
		fmt.Printf("%-28s safe Vmin %v  (guardband %v, %d runs spent)\n",
			cfg.label, cz.SafeVmin, cz.GuardbandMV(), cz.TotalRuns)
		for _, lvl := range cz.Levels {
			fmt.Printf("    %v  pfail %5.1f%%  faults:", lvl.Voltage, 100*lvl.PFail())
			for _, kind := range []avfs.FaultKind{avfs.FaultSDC, avfs.FaultTimeout, avfs.FaultHang, avfs.FaultCrash} {
				if n := lvl.ByKind.Count(kind); n > 0 {
					fmt.Printf(" %v=%d", kind, n)
				}
			}
			fmt.Println()
		}
		fmt.Println()
	}

	// The Table II envelope the daemon uses, derived from the same model.
	fmt.Println("Table II envelopes (full speed / half speed):")
	for _, pmds := range []int{2, 4, 8, 16} {
		fmt.Printf("  %2d PMDs (droop class %d): %v / %v\n",
			pmds, avfs.DroopClassOf(spec, pmds),
			avfs.SafeVminEnvelope(spec, avfs.FullSpeed, pmds),
			avfs.SafeVminEnvelope(spec, avfs.HalfSpeed, pmds))
	}
}
