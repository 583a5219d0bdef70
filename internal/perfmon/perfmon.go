// Package perfmon emulates the performance-monitoring-unit access path the
// paper builds for its daemon: a lightweight kernel module that exposes
// raw PMU counters to user space, avoiding the ±3% overhead of Perf/PAPI
// (Sec. VI-A).
//
// The daemon's measurement protocol is exactly the paper's: read the L3C
// access counter and the cycle counter once, read them again one million
// cycles later, and subtract. DeltaSampler packages that protocol.
package perfmon

import (
	"fmt"
	"slices"

	"avfs/internal/chip"
	"avfs/internal/sim"
)

// Event selects a PMU counter.
type Event int

const (
	// Cycles counts core clock cycles.
	Cycles Event = iota
	// Instructions counts retired instructions.
	Instructions
	// L3CAccesses counts accesses that miss the L2 and reach the L3
	// cache (the paper monitors L2 miss counters for this).
	L3CAccesses
)

// String names the event.
func (e Event) String() string {
	switch e {
	case Cycles:
		return "cycles"
	case Instructions:
		return "instructions"
	case L3CAccesses:
		return "l3c-accesses"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// PMU reads per-core counters from a machine, standing in for the kernel
// module's register reads.
type PMU struct {
	M *sim.Machine
}

// Read returns the current value of core c's counter for event e.
func (p *PMU) Read(c chip.CoreID, e Event) uint64 {
	cc := p.M.Counters(c)
	switch e {
	case Cycles:
		return cc.Cycles
	case Instructions:
		return cc.Instructions
	case L3CAccesses:
		return cc.L3CAccesses
	default:
		panic(fmt.Sprintf("perfmon: unknown event %v", e))
	}
}

// Sample is an open measurement window over a set of cores.
type Sample struct {
	pmu    *PMU
	cores  []chip.CoreID
	cycle0 []uint64
	l3c0   []uint64
	instr0 []uint64
}

// DeltaSampler implements the two-read counter protocol over one or more
// cores (a multi-threaded process is sampled across all its cores).
type DeltaSampler struct {
	PMU *PMU
}

// Open starts a measurement window over the given cores.
func (d *DeltaSampler) Open(cores []chip.CoreID) *Sample {
	s := &Sample{pmu: d.PMU}
	s.Retarget(cores)
	return s
}

// Retarget restarts the window over a new core set in place: it is
// Open(cores) reusing s's storage, for a monitor whose process moved.
func (s *Sample) Retarget(cores []chip.CoreID) {
	n := len(cores)
	s.cores = append(s.cores[:0], cores...)
	s.cycle0 = slices.Grow(s.cycle0[:0], n)[:n]
	s.l3c0 = slices.Grow(s.l3c0[:0], n)[:n]
	s.instr0 = slices.Grow(s.instr0[:0], n)[:n]
	s.Rearm()
}

// Rearm restarts the window over the same cores by taking the first read
// again, in place: it is Open(s.Cores()) without allocating, for a
// monitor that closes a window and immediately opens the next one.
func (s *Sample) Rearm() {
	for i, c := range s.cores {
		s.cycle0[i] = s.pmu.Read(c, Cycles)
		s.l3c0[i] = s.pmu.Read(c, L3CAccesses)
		s.instr0[i] = s.pmu.Read(c, Instructions)
	}
}

// MinWindowCycles is the cycle span the paper's module waits for between
// the two counter reads.
const MinWindowCycles = 1_000_000

// Measurement is the closed window's counter deltas.
type Measurement struct {
	Cycles       uint64
	L3CAccesses  uint64
	Instructions uint64
}

// Ready reports whether at least MinWindowCycles elapsed on every sampled
// core since the window opened.
func (s *Sample) Ready() bool {
	for i, c := range s.cores {
		if s.pmu.Read(c, Cycles)-s.cycle0[i] < MinWindowCycles {
			return false
		}
	}
	return true
}

// Cores returns the core set of the window.
func (s *Sample) Cores() []chip.CoreID { return s.cores }

// Close ends the window and returns the summed deltas across the cores.
func (s *Sample) Close() Measurement {
	var m Measurement
	for i, c := range s.cores {
		m.Cycles += s.pmu.Read(c, Cycles) - s.cycle0[i]
		m.L3CAccesses += s.pmu.Read(c, L3CAccesses) - s.l3c0[i]
		m.Instructions += s.pmu.Read(c, Instructions) - s.instr0[i]
	}
	return m
}

// L3CPer1M returns the measurement's L3C accesses per million cycles,
// normalized per core so multi-threaded processes compare against the same
// 3K threshold as single-threaded ones.
func (m Measurement) L3CPer1M(nCores int) float64 {
	if m.Cycles == 0 {
		return 0
	}
	perCoreCycles := float64(m.Cycles) / float64(nCores)
	perCoreL3C := float64(m.L3CAccesses) / float64(nCores)
	return perCoreL3C * 1e6 / perCoreCycles
}

// IPC returns instructions per cycle over the window.
func (m Measurement) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

// SampleState is the serializable form of an open measurement window,
// used by the daemon's snapshot machinery so a restored controller sees
// exactly the window the original had open.
type SampleState struct {
	Cores  []int    `json:"cores"`
	Cycle0 []uint64 `json:"cycle0"`
	L3C0   []uint64 `json:"l3c0"`
	Instr0 []uint64 `json:"instr0"`
}

// State captures the window's base readings.
func (s *Sample) State() SampleState {
	st := SampleState{
		Cycle0: append([]uint64(nil), s.cycle0...),
		L3C0:   append([]uint64(nil), s.l3c0...),
		Instr0: append([]uint64(nil), s.instr0...),
	}
	for _, c := range s.cores {
		st.Cores = append(st.Cores, int(c))
	}
	return st
}

// Reopen reconstructs an open window from captured base readings without
// re-reading the counters (the two-read protocol's first read already
// happened on the original machine).
func (d *DeltaSampler) Reopen(st SampleState) (*Sample, error) {
	n := len(st.Cores)
	if len(st.Cycle0) != n || len(st.L3C0) != n || len(st.Instr0) != n {
		return nil, fmt.Errorf("perfmon: sample state shape mismatch (%d cores, %d/%d/%d readings)",
			n, len(st.Cycle0), len(st.L3C0), len(st.Instr0))
	}
	s := &Sample{
		pmu:    d.PMU,
		cycle0: append([]uint64(nil), st.Cycle0...),
		l3c0:   append([]uint64(nil), st.L3C0...),
		instr0: append([]uint64(nil), st.Instr0...),
	}
	for _, c := range st.Cores {
		s.cores = append(s.cores, chip.CoreID(c))
	}
	return s, nil
}
