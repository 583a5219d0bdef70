// Custompolicy shows how to build a scheduling/DVFS policy of your own on
// the library's substrate and compare it against the paper's daemon.
//
// The custom policy implemented here is a "race-to-idle" governor: every
// PMD with work runs at maximum frequency at nominal voltage, processes
// are packed onto the fewest PMDs (clustered), and the chip relies on
// finishing early to save energy. Race-to-idle is the textbook alternative
// to DVFS — and the comparison shows why the paper's approach wins on
// memory-bound server mixes: a memory-stalled core at 3 GHz burns power
// without running faster.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"

	"avfs"
)

// raceToIdle packs pending processes onto the lowest free cores and keeps
// busy PMDs at maximum frequency, idle PMDs at minimum.
type raceToIdle struct {
	m *avfs.Machine
}

func (r *raceToIdle) attach() {
	r.m.OnTick(func(*avfs.Machine) { r.tick() })
}

func (r *raceToIdle) tick() {
	// Pack pending processes FIFO onto the lowest free cores.
	for _, p := range r.m.Pending() {
		free := r.m.FreeCores()
		if len(free) < len(p.Threads) {
			break
		}
		if err := r.m.Place(p, free[:len(p.Threads)]); err != nil {
			panic(err)
		}
	}
	// Race: busy PMDs at max frequency, idle PMDs at the floor.
	spec := r.m.Spec
	for pmd := 0; pmd < spec.PMDs(); pmd++ {
		c0, c1 := spec.CoresOf(avfs.PMDID(pmd))
		busy := r.m.ThreadOn(c0) != nil || r.m.ThreadOn(c1) != nil
		f := spec.MinFreq
		if busy {
			f = spec.MaxFreq
		}
		r.m.Chip.SetPMDFreq(avfs.PMDID(pmd), f)
	}
}

// mix submits the same job mix on a machine.
func mix(m *avfs.Machine) {
	for _, job := range []struct {
		name    string
		threads int
	}{{"milc", 1}, {"lbm", 1}, {"mcf", 1}, {"libquantum", 1}, {"namd", 1}, {"povray", 1}, {"CG", 4}, {"EP", 4}} {
		b, err := avfs.BenchmarkByName(job.name)
		if err != nil {
			panic(err)
		}
		m.MustSubmit(b, job.threads)
	}
}

func run(name string, setup func(*avfs.Machine)) (energy, seconds float64) {
	m := avfs.NewMachine(avfs.XGene3)
	setup(m)
	mix(m)
	if err := m.RunUntilIdle(3600); err != nil {
		panic(err)
	}
	if n := len(m.Emergencies()); n != 0 {
		panic(fmt.Sprintf("%s: %d voltage emergencies", name, n))
	}
	return m.Meter.Energy(), m.Now()
}

// stack returns the set-up that runs a machine under one of the paper's
// system configurations.
func stack(cfg avfs.SystemConfig) func(*avfs.Machine) {
	return func(m *avfs.Machine) {
		if _, err := avfs.NewStack(m, cfg, nil, nil); err != nil {
			panic(err)
		}
	}
}

func main() {
	baseE, baseT := run("baseline", stack(avfs.Baseline))
	raceE, raceT := run("race-to-idle", func(m *avfs.Machine) { (&raceToIdle{m: m}).attach() })
	daemonE, daemonT := run("paper daemon", stack(avfs.Optimal))

	fmt.Printf("%-14s %10s %10s %10s\n", "policy", "energy (J)", "time (s)", "ED2P")
	for _, row := range []struct {
		name string
		e, t float64
	}{
		{"baseline", baseE, baseT},
		{"race-to-idle", raceE, raceT},
		{"paper daemon", daemonE, daemonT},
	} {
		fmt.Printf("%-14s %10.1f %10.1f %10.3g\n", row.name, row.e, row.t, row.e*row.t*row.t)
	}
	fmt.Printf("\ndaemon vs race-to-idle: %.1f%% less energy with %.1f%% more time\n",
		100*(1-daemonE/raceE), 100*(daemonT/raceT-1))
}
