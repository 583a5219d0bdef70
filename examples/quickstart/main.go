// Quickstart: create a simulated X-Gene 3 server, attach the paper's
// online monitoring daemon, run a small mixed workload and print what the
// daemon did — classification, placement, V/F settings and the energy
// saved against a baseline run of the same programs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"avfs"
)

// submitMix queues the same program mix on any machine: one parallel
// memory-intensive job (CG), one parallel CPU-intensive job (EP) and a few
// single-threaded SPEC programs.
func submitMix(m *avfs.Machine) {
	for _, job := range []struct {
		name    string
		threads int
	}{{"CG", 8}, {"EP", 8}, {"namd", 1}, {"milc", 1}, {"gcc", 1}, {"lbm", 1}} {
		b, err := avfs.BenchmarkByName(job.name)
		if err != nil {
			panic(err)
		}
		m.MustSubmit(b, job.threads)
	}
}

func main() {
	// --- Run 1: the paper's daemon (Optimal configuration).
	optimal := avfs.NewMachine(avfs.XGene3)
	s, err := avfs.NewStack(optimal, avfs.Optimal, nil, nil)
	if err != nil {
		panic(err)
	}
	d := s.D
	submitMix(optimal)
	optimal.RunFor(2) // let the monitor classify

	fmt.Println("daemon view after 2 simulated seconds:")
	for _, p := range optimal.Running() {
		fmt.Printf("  %-6s %2d thread(s)  %-16v cores %v\n",
			p.Bench.Name, len(p.Threads), d.ClassOf(p), p.Cores())
	}
	fmt.Printf("  voltage %v (nominal %v), %d utilized PMDs, droop class %d\n\n",
		optimal.Chip.Voltage(), optimal.Spec.NominalMV,
		optimal.UtilizedPMDCount(), d.DroopClass())

	if err := optimal.RunUntilIdle(3600); err != nil {
		panic(err)
	}

	// --- Run 2: the Linux-like baseline (ondemand governor, nominal V).
	baseline := avfs.NewMachine(avfs.XGene3)
	if _, err := avfs.NewStack(baseline, avfs.Baseline, nil, nil); err != nil {
		panic(err)
	}
	submitMix(baseline)
	if err := baseline.RunUntilIdle(3600); err != nil {
		panic(err)
	}

	fmt.Printf("baseline: %7.1f J over %5.1f s (%.1f W avg)\n",
		baseline.Meter.Energy(), baseline.Now(), baseline.Meter.AveragePower())
	fmt.Printf("daemon:   %7.1f J over %5.1f s (%.1f W avg)\n",
		optimal.Meter.Energy(), optimal.Now(), optimal.Meter.AveragePower())
	saved := 1 - optimal.Meter.Energy()/baseline.Meter.Energy()
	fmt.Printf("energy saved: %.1f%%  |  time penalty: %.1f%%  |  voltage emergencies: %d\n",
		100*saved, 100*(optimal.Now()/baseline.Now()-1), len(optimal.Emergencies()))
}
