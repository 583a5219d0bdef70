package avfs_test

import (
	"fmt"

	"avfs"
)

// The library's core flow: a simulated server, the paper's daemon, a
// mixed workload, and the resulting V/F decisions.
func Example() {
	machine := avfs.NewMachine(avfs.XGene3)
	s, err := avfs.NewStack(machine, avfs.Optimal, nil, nil) // the paper's daemon
	if err != nil {
		panic(err)
	}
	d := s.D

	cgModel, _ := avfs.BenchmarkByName("CG")     // memory-intensive
	namdModel, _ := avfs.BenchmarkByName("namd") // CPU-intensive
	cg := machine.MustSubmit(cgModel, 8)
	namd := machine.MustSubmit(namdModel, 1)
	machine.RunFor(3)

	fmt.Println("CG:", d.ClassOf(cg))
	fmt.Println("namd:", d.ClassOf(namd))
	fmt.Println("voltage:", machine.Chip.Voltage())
	fmt.Println("emergencies:", len(machine.Emergencies()))
	// Output:
	// CG: memory-intensive
	// namd: cpu-intensive
	// voltage: 815mV
	// emergencies: 0
}

// Table II's safe-Vmin envelopes come straight from the model.
func ExampleSafeVminEnvelope() {
	spec := avfs.Spec(avfs.XGene3)
	for _, pmds := range []int{2, 4, 8, 16} {
		fmt.Printf("%2d PMDs: %v @ full speed, %v @ half speed\n",
			pmds,
			avfs.SafeVminEnvelope(spec, avfs.FullSpeed, pmds),
			avfs.SafeVminEnvelope(spec, avfs.HalfSpeed, pmds))
	}
	// Output:
	//  2 PMDs: 780mV @ full speed, 770mV @ half speed
	//  4 PMDs: 800mV @ full speed, 780mV @ half speed
	//  8 PMDs: 810mV @ full speed, 790mV @ half speed
	// 16 PMDs: 830mV @ full speed, 820mV @ half speed
}

// Voltage characterization follows the paper's methodology: walk down
// from nominal, declare safe the lowest level that passes every run.
func ExampleCharacterizer() {
	ch := &avfs.Characterizer{SafeTrials: 200, UnsafeTrials: 60}
	cores, _ := avfs.ClusteredAllocation(avfs.XGene3, 32)
	cg, _ := avfs.BenchmarkByName("CG")
	cz := ch.Characterize(&avfs.VminConfig{
		Spec:      avfs.Spec(avfs.XGene3),
		FreqClass: avfs.FullSpeed,
		Cores:     cores,
		Bench:     cg,
	})
	fmt.Println("safe Vmin:", cz.SafeVmin)
	fmt.Println("guardband:", cz.GuardbandMV())
	// Output:
	// safe Vmin: 830mV
	// guardband: 40mV
}

// Clustered and spreaded allocations are the paper's Fig. 2.
func ExampleClusteredAllocation() {
	cl, _ := avfs.ClusteredAllocation(avfs.XGene3, 4)
	sp, _ := avfs.SpreadedAllocation(avfs.XGene3, 4)
	fmt.Println("clustered:", cl)
	fmt.Println("spreaded: ", sp)
	// Output:
	// clustered: [0 1 2 3]
	// spreaded:  [0 2 4 6]
}

// Frequency classes capture the clock skipping/division electrical
// behaviour that drives the Vmin structure.
func ExampleFreqClassOf() {
	x2 := avfs.Spec(avfs.XGene2)
	for _, f := range []avfs.MHz{2400, 1500, 1200, 900} {
		fmt.Printf("%v -> %v\n", f, avfs.FreqClassOf(x2, f))
	}
	// Output:
	// 2400MHz -> full-speed
	// 1500MHz -> full-speed
	// 1200MHz -> half-speed
	// 900MHz -> divided-low
}
