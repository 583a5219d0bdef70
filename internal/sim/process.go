package sim

import (
	"fmt"

	"avfs/internal/chip"
	"avfs/internal/power"
	"avfs/internal/workload"
)

// ProcState is the lifecycle state of a simulated process.
type ProcState int

const (
	// Pending means submitted but not yet placed on cores.
	Pending ProcState = iota
	// Running means all threads are placed and executing.
	Running
	// Finished means every thread completed its work.
	Finished
)

// String names the state.
func (s ProcState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Thread is one schedulable unit of a process, pinned to at most one core.
type Thread struct {
	Proc *Process
	// Index is the thread's rank within its process.
	Index int
	// Core is the hosting core, or -1 while unplaced.
	Core chip.CoreID

	// instrTotal is the work of this thread in instructions; instrDone
	// is the progress so far.
	instrTotal float64
	instrDone  float64

	// Per-tick observables refreshed by the machine.
	lastCPI    float64
	lastL2Infl float64
	stallFrac  float64

	// stalledUntilTick pauses the thread's execution until the machine
	// reaches the given tick index — the cost of a migration (cold
	// caches, kernel bookkeeping) when the machine models one. Integer
	// ticks make the resume boundary exact: the thread runs again on the
	// first tick whose index is >= stalledUntilTick.
	stalledUntilTick uint64
}

// Done reports whether the thread finished its work.
func (t *Thread) Done() bool { return t.instrDone >= t.instrTotal }

// Progress returns completed work in [0,1].
func (t *Thread) Progress() float64 {
	if t.instrTotal == 0 {
		return 1
	}
	p := t.instrDone / t.instrTotal
	if p > 1 {
		return 1
	}
	return p
}

// Process is one running program instance: a parallel program with N
// threads sharing one body of work, or a single-threaded program (one
// thread). The paper's multi-copy runs are modelled as N independent
// single-threaded processes.
type Process struct {
	ID    int
	Bench *workload.Benchmark
	// Threads has length 1 for single-threaded programs.
	Threads []*Thread

	State ProcState
	// Submitted/Started/Completed are simulation timestamps in seconds;
	// Started and Completed are -1 until they happen.
	Submitted float64
	Started   float64
	Completed float64

	// coreEnergy accumulates the core dynamic energy attributed to this
	// process's threads (shared uncore/leakage energy is not divided).
	coreEnergy power.Joules
}

// CoreEnergy returns the core dynamic energy in joules attributed to the
// process so far. It excludes the chip's shared components (PMD uncore,
// L3, memory controllers, leakage), so the sum over processes is below
// the machine meter's total.
func (p *Process) CoreEnergy() float64 { return p.coreEnergy.J() }

// Record is a finished process folded to its result, the form in which
// the machine keeps its history: a value with no threads and no pointers,
// which a capture or restore copies as one slice. Bench is the
// benchmark's catalog name and Threads the thread count.
type Record struct {
	ID         int          `json:"id"`
	Bench      string       `json:"bench"`
	Threads    int          `json:"threads"`
	Submitted  float64      `json:"submitted"`
	Started    float64      `json:"started"`
	Completed  float64      `json:"completed"`
	CoreEnergy power.Joules `json:"core_energy"`
}

// newProcess builds a process with the Amdahl work split of the paper's
// parallel programs: thread 0 carries the serial fraction plus its share
// of the parallel work; every other thread carries a parallel share.
func newProcess(id int, b *workload.Benchmark, nThreads int, now float64) (*Process, error) {
	if nThreads < 1 {
		return nil, fmt.Errorf("%w: needs at least one thread", ErrInvalidProcess)
	}
	if !b.Parallel && nThreads != 1 {
		return nil, fmt.Errorf("%w: %s is single-threaded; submit multiple copies instead of %d threads", ErrInvalidProcess, b.Name, nThreads)
	}
	p := &Process{
		ID:        id,
		Bench:     b,
		State:     Pending,
		Submitted: now,
		Started:   -1,
		Completed: -1,
	}
	serial := b.SerialFrac
	if nThreads == 1 {
		serial = 0
	}
	parallelShare := b.Instructions * (1 - serial) / float64(nThreads)
	for i := 0; i < nThreads; i++ {
		work := parallelShare
		if i == 0 {
			work += b.Instructions * serial
		}
		p.Threads = append(p.Threads, &Thread{
			Proc:       p,
			Index:      i,
			Core:       -1,
			instrTotal: work,
			lastCPI:    b.CPIBase,
			lastL2Infl: 1,
		})
	}
	return p, nil
}

// Cores returns the cores currently hosting the process's threads
// (unplaced threads are skipped).
func (p *Process) Cores() []chip.CoreID { return p.AppendCores(nil) }

// AppendCores appends the cores Cores returns to dst and returns the
// extended slice, for callers that reuse one buffer.
func (p *Process) AppendCores(dst []chip.CoreID) []chip.CoreID {
	for _, t := range p.Threads {
		if t.Core >= 0 {
			dst = append(dst, t.Core)
		}
	}
	return dst
}

// Runtime returns the wall-clock execution time, or -1 if not finished.
func (p *Process) Runtime() float64 {
	if p.Completed < 0 || p.Started < 0 {
		return -1
	}
	return p.Completed - p.Started
}

// done reports whether all threads completed.
func (p *Process) done() bool {
	for _, t := range p.Threads {
		if !t.Done() {
			return false
		}
	}
	return true
}
