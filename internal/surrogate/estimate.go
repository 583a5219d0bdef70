package surrogate

import (
	"fmt"
	"math"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/experiments"
	"avfs/internal/power"
	"avfs/internal/sim"
	"avfs/internal/vmin"
	"avfs/internal/wlgen"
	"avfs/internal/workload"
)

// VoltageSafeVmin selects the configuration's class-envelope safe Vmin
// plus the regulator guard, mirroring experiments.VoltageSafeVmin; a zero
// Query voltage means nominal.
const VoltageSafeVmin chip.Millivolts = -1

// stallActivityFloor mirrors the power model's constant: the fraction of
// core activity that persists through a memory stall.
const stallActivityFloor = 0.55

// Estimator is the closed-form query engine for one (chip, tech node)
// pair. Construction precomputes everything the query path needs — the
// frequency grid, the Vmin guardband curve per (frequency class,
// utilized-PMD count), scaled coefficients — so EstimateEnergy,
// SearchEnergyOptimal and EstimateSet run with zero allocations. An Estimator is NOT safe for concurrent use (it owns
// scratch buffers); wrap calls in a mutex or keep one per goroutine.
type Estimator struct {
	// Spec is the (possibly node-scaled) chip the estimates describe.
	Spec *chip.Spec
	// Base is the native silicon the fitted model belongs to.
	Base  *chip.Spec
	Coeff power.Coefficients
	Model *Model
	Node  TechNode
	SM    ScalingModel
	Scale NodeScale

	freqs     []chip.MHz // ascending V/F grid of Spec
	env       [numFreqClasses][]chip.Millivolts
	divLowMax chip.MHz

	// Scratch for the zero-alloc set path (grown on first use).
	evs                       []float64
	pFin, pStart, pEffF, pAcc []float64
	pThreads, pClass          []int
	dur                       []float64
}

// NewEstimator builds the query engine from a native chip spec and its
// fitted model, optionally projected to a technology node (0 = native)
// under a roadmap.
func NewEstimator(base *chip.Spec, m *Model, node TechNode, sm ScalingModel) (*Estimator, error) {
	if m == nil {
		return nil, fmt.Errorf("surrogate: nil model")
	}
	if err := m.validate(base); err != nil {
		return nil, err
	}
	spec, coeff, scale := ScaledChip(base, power.CoefficientsFor(base.Model), node, sm)
	e := &Estimator{
		Spec:  spec,
		Base:  base,
		Coeff: coeff,
		Model: m,
		Node:  node,
		SM:    sm,
		Scale: scale,
		freqs: spec.FreqSteps(),
	}
	if node == 0 {
		e.Node = NativeNode(base)
	}
	e.divLowMax = chip.MHz(math.Round(float64(clock.XGene2DividedLowMax) * scale.FreqRatio))
	// Precompute the guardband curve: Table II class envelope + regulator
	// guard per (frequency class, utilized-PMD count), Vdd-scaled onto
	// the projected rail grid. Classes the native chip lacks reuse the
	// deepest fitted class.
	classes := clock.Classes(base)
	for fc := 0; fc < numFreqClasses; fc++ {
		src := clock.FreqClass(fc)
		if fc >= len(classes) {
			src = classes[len(classes)-1]
		}
		row := make([]chip.Millivolts, base.PMDs()+1)
		for util := 1; util <= base.PMDs(); util++ {
			mv := vmin.ClassEnvelope(base, src, util) + experiments.GuardMV
			row[util] = spec.ClampVoltage(scaleMV(mv, scale.VddRatio, base.VoltageStep))
		}
		row[0] = row[1]
		e.env[fc] = row
	}
	return e, nil
}

// freqClassOf classifies a frequency on the (scaled) grid; the X-Gene 2
// divided-low boundary scales with the node's frequency ratio.
func (e *Estimator) freqClassOf(f chip.MHz) clock.FreqClass {
	if e.Spec.Model == chip.XGene2 && f <= e.divLowMax {
		return clock.DividedLow
	}
	if f > e.Spec.HalfFreq() {
		return clock.FullSpeed
	}
	return clock.HalfSpeed
}

// utilPMDsFor is the closed-form PMD occupancy of n threads under a
// placement: clustered packs core pairs, spreaded takes one PMD each.
func utilPMDsFor(spec *chip.Spec, p sim.Placement, n int) int {
	if n <= 0 {
		return 0
	}
	if p == sim.Spreaded {
		if n <= spec.PMDs() {
			return n
		}
		return spec.PMDs()
	}
	u := (n + 1) / 2
	if u > spec.PMDs() {
		u = spec.PMDs()
	}
	return u
}

// soloTime is the uncorrected analytic runtime of one process: the
// roofline CPI model evaluated at fGHz, with the serial fraction holding
// the slowest thread of a parallel program.
func soloTime(b *workload.Benchmark, threads int, fGHz float64) float64 {
	cpi := b.CPIAt(fGHz, 1, 1)
	instr := b.Instructions
	if b.Parallel && threads > 1 {
		instr *= b.SerialFrac + (1-b.SerialFrac)/float64(threads)
	}
	return instr * cpi / (fGHz * 1e9)
}

// procEff is the per-core dynamic-power efficiency factor: activity
// damped by the frequency-dependent memory-stall fraction.
func procEff(b *workload.Benchmark, fGHz float64) float64 {
	cpi := b.CPIAt(fGHz, 1, 1)
	stall := 0.0
	if cpi > 0 {
		stall = (cpi - b.CPIBase) / cpi
	}
	if stall < 0 {
		stall = 0
	}
	return b.Activity * ((1 - stall) + stall*stallActivityFloor)
}

// watts evaluates the CV²f decomposition for aggregated activity:
// effFSum is Σ(core eff × core frequency in Hz) over busy cores, pmdFSum
// is Σ(PMD frequency in Hz) over utilized PMDs, accPerSec the total L3
// access rate, idleFHz the clock of unutilized cores and PMDs.
func (e *Estimator) watts(v chip.Millivolts, busyCores, utilPMDs int, effFSum, pmdFSum, accPerSec, idleFHz float64) float64 {
	vv := v.Volts()
	vn := e.Spec.NominalMV.Volts()
	v2 := vv * vv
	rel2 := v2 / (vn * vn)
	rel3 := rel2 * (vv / vn)
	w := e.Coeff.CoreCapF*v2*effFSum + e.Coeff.PMDCapF*v2*pmdFSum
	if n := e.Spec.Cores - busyCores; n > 0 {
		w += float64(n) * e.Coeff.CoreCapF * v2 * idleFHz * e.Coeff.IdleCoreFactor
	}
	if n := e.Spec.PMDs() - utilPMDs; n > 0 {
		w += float64(n) * e.Coeff.PMDCapF * v2 * idleFHz * e.Coeff.IdlePMDFactor
	}
	memUtil := 0.0
	if e.Spec.MemBandwidth > 0 {
		memUtil = accPerSec / e.Spec.MemBandwidth
		if memUtil > 1 {
			memUtil = 1
		}
	}
	return w + e.Coeff.L3Watts*rel2 + e.Coeff.MemWatts*memUtil*rel2 + e.Coeff.LeakWatts*rel3
}

// Query asks for one configuration point: a benchmark at a thread count,
// placement, frequency and voltage discipline.
type Query struct {
	Bench     *workload.Benchmark
	Threads   int // 0 means 1
	Placement sim.Placement
	Freq      chip.MHz // 0 means the (scaled) maximum
	// Voltage: 0 = nominal, VoltageSafeVmin = the configuration's class
	// envelope + guard, otherwise the explicit rail setting (clamped).
	Voltage chip.Millivolts
}

// Estimate is a closed-form answer: the configuration echoed back with
// its predicted runtime, power and energy.
type Estimate struct {
	Bench     string
	Threads   int
	Placement sim.Placement
	FreqMHz   chip.MHz
	VoltageMV chip.Millivolts
	RuntimeS  float64
	AvgPowerW float64
	EnergyJ   float64
	EDP       float64
	ED2P      float64
}

// estimateOne is the shared scalar core of the query API. Zero
// allocations.
func (e *Estimator) estimateOne(b *workload.Benchmark, threads int, placement sim.Placement, f chip.MHz, voltage chip.Millivolts) Estimate {
	if f == 0 {
		f = e.Spec.MaxFreq
	}
	f = e.Spec.ClampFreq(f)
	fc := e.freqClassOf(f)
	fGHz := f.GHz()
	fHz := fGHz * 1e9
	util := utilPMDsFor(e.Spec, placement, threads)
	var v chip.Millivolts
	switch voltage {
	case 0:
		v = e.Spec.NominalMV
	case VoltageSafeVmin:
		v = e.envAt(fc, util)
	default:
		v = e.Spec.ClampVoltage(voltage)
	}
	cell := e.Model.soloCell(int(fc), int(placement), int(ClassOf(b)))
	t := soloTime(b, threads, fGHz) * cell.TimeRatio
	eff := procEff(b, fGHz)
	effFSum := float64(threads) * eff * fHz
	pmdFSum := float64(util) * fHz
	acc := float64(threads) * b.L3RatePer1M(fGHz, 1, 1) * fHz / 1e6
	w := e.watts(v, threads, util, effFSum, pmdFSum, acc, e.Spec.MaxFreq.Hz()) * cell.PowerRatio
	en := w * t
	return Estimate{
		Bench: b.Name, Threads: threads, Placement: placement,
		FreqMHz: f, VoltageMV: v,
		RuntimeS: t, AvgPowerW: w, EnergyJ: en,
		EDP: en * t, ED2P: en * t * t,
	}
}

// envAt indexes the precomputed guardband curve with clamping.
func (e *Estimator) envAt(fc clock.FreqClass, util int) chip.Millivolts {
	row := e.env[int(fc)]
	if util < 0 {
		util = 0
	}
	if util >= len(row) {
		util = len(row) - 1
	}
	return row[util]
}

// checkQuery validates the configuration shape.
func (e *Estimator) checkQuery(b *workload.Benchmark, threads int) (int, error) {
	if b == nil {
		return 0, fmt.Errorf("surrogate: nil benchmark")
	}
	if threads == 0 {
		threads = 1
	}
	if threads < 1 || threads > e.Spec.Cores {
		return 0, fmt.Errorf("surrogate: %d threads out of range on %s", threads, e.Spec.Name)
	}
	return threads, nil
}

// EstimateEnergy answers one configuration point in closed form: runtime,
// average power and energy, with the fitted per-cell corrections applied.
func (e *Estimator) EstimateEnergy(q Query) (Estimate, error) {
	threads, err := e.checkQuery(q.Bench, q.Threads)
	if err != nil {
		return Estimate{}, err
	}
	return e.estimateOne(q.Bench, threads, q.Placement, q.Freq, q.Voltage), nil
}

// Objective selects what SearchEnergyOptimal minimizes.
type Objective int

const (
	// ObjectiveEnergy minimizes energy to completion.
	ObjectiveEnergy Objective = iota
	// ObjectiveED2P minimizes energy × delay².
	ObjectiveED2P
)

// SearchQuery spans the config-search grid for one benchmark.
type SearchQuery struct {
	Bench *workload.Benchmark
	// Threads fixes the thread count; 0 sweeps the paper's max/half/
	// quarter options.
	Threads   int
	Objective Objective
}

// SearchEnergyOptimal scans the full configuration grid — every V/F step
// (at both the nominal and the safe-Vmin rail) × both placements (× the
// thread options when unpinned) — and returns the point minimizing the
// objective. The scan is pure closed-form arithmetic: microseconds, zero
// allocations.
func (e *Estimator) SearchEnergyOptimal(q SearchQuery) (Estimate, error) {
	if q.Bench == nil {
		return Estimate{}, fmt.Errorf("surrogate: nil benchmark")
	}
	var t0, t1, t2 int
	if q.Threads != 0 {
		if _, err := e.checkQuery(q.Bench, q.Threads); err != nil {
			return Estimate{}, err
		}
		t0, t1, t2 = q.Threads, q.Threads, q.Threads
	} else {
		t0, t1, t2 = e.Spec.Cores, e.Spec.Cores/2, e.Spec.Cores/4
		if t2 < 1 {
			t2 = 1
		}
	}
	best := Estimate{}
	bestScore := math.Inf(1)
	for ti := 0; ti < 3; ti++ {
		threads := t0
		if ti == 1 {
			threads = t1
		} else if ti == 2 {
			threads = t2
		}
		if ti == 1 && t1 == t0 || ti == 2 && (t2 == t1 || t2 == t0) {
			continue
		}
		for pi := 0; pi < numPlacements; pi++ {
			for _, f := range e.freqs {
				for vi := 0; vi < 2; vi++ {
					voltage := chip.Millivolts(0)
					if vi == 1 {
						voltage = VoltageSafeVmin
					}
					est := e.estimateOne(q.Bench, threads, sim.Placement(pi), f, voltage)
					score := est.EnergyJ
					if q.Objective == ObjectiveED2P {
						score = est.ED2P
					}
					if score < bestScore {
						bestScore, best = score, est
					}
				}
			}
		}
	}
	return best, nil
}

// ---------------------------------------------------------------------------
// Set estimation: many live processes under one Table IV policy — the
// closed form behind the instant Table IV comparison and fast what-if.
// ---------------------------------------------------------------------------

// Proc is the remaining work of one live (or scheduled) process.
type Proc struct {
	Bench   *workload.Benchmark
	Threads int
	// StartS is when the process starts, relative to the estimate origin
	// (0 for already-running work; an arrival offset for schedules).
	StartS float64
	// RemFrac is the fraction of the slowest thread's instructions still
	// to run, in (0,1].
	RemFrac float64
}

// BranchSpec is one hypothetical configuration for a set estimate.
type BranchSpec struct {
	Config experiments.SystemConfig
	// PowerCapW throttles the frequency grid to the fastest step whose
	// full-set power fits under the cap; 0 means uncapped.
	PowerCapW float64
	// Placement overrides the policy's placement when HasPlacement.
	Placement    sim.Placement
	HasPlacement bool
}

// SetEstimate is the closed-form answer for a process set over a horizon,
// shaped like one what-if branch report.
type SetEstimate struct {
	// Seconds is the advanced span: the horizon, or the idle point when
	// untilIdle ended earlier.
	Seconds   float64
	EnergyJ   float64
	AvgPowerW float64
	Completed int
	Running   int
	Pending   int
	// MakespanS is the completion time of the last finished process, 0
	// when nothing finished inside the horizon.
	MakespanS   float64
	VoltageMV   chip.Millivolts
	P50RuntimeS float64
	P99RuntimeS float64
}

// grow resizes the scratch buffers for n processes without allocating on
// repeat calls of the same or smaller size.
func (e *Estimator) grow(n int) {
	if cap(e.pFin) < n {
		e.pFin = make([]float64, 0, 2*n)
		e.pStart = make([]float64, 0, 2*n)
		e.pEffF = make([]float64, 0, 2*n)
		e.pAcc = make([]float64, 0, 2*n)
		e.pThreads = make([]int, 0, 2*n)
		e.pClass = make([]int, 0, 2*n)
		e.evs = make([]float64, 0, 4*n)
		e.dur = make([]float64, 0, 2*n)
	}
	e.pFin = e.pFin[:0]
	e.pStart = e.pStart[:0]
	e.pEffF = e.pEffF[:0]
	e.pAcc = e.pAcc[:0]
	e.pThreads = e.pThreads[:0]
	e.pClass = e.pClass[:0]
	e.evs = e.evs[:0]
	e.dur = e.dur[:0]
}

// classFreqs returns the per-class frequency a policy settles at: the
// daemon's steady state runs memory-intensive work at half clock under
// Optimal and everything at full clock otherwise. A power cap walks the
// grid down until the full-set power fits.
func (e *Estimator) classFreqs(procs []Proc, spec BranchSpec) (fCPU, fMem chip.MHz, v0 chip.Millivolts) {
	fCPU = e.Spec.MaxFreq
	fMem = e.Spec.MaxFreq
	if spec.Config == experiments.Optimal {
		fMem = e.Spec.HalfFreq()
	}
	if spec.PowerCapW > 0 {
		// Walk the grid from the top until the whole set fits under the
		// cap at nominal voltage (the governor's worst case).
		for i := len(e.freqs) - 1; i >= 0; i-- {
			f := e.freqs[i]
			fm := f
			if spec.Config == experiments.Optimal && fm > e.Spec.HalfFreq() {
				fm = e.Spec.HalfFreq()
			}
			if e.setWatts(procs, spec, f, fm, e.Spec.NominalMV, math.Inf(1), 0) <= spec.PowerCapW || i == 0 {
				fCPU, fMem = f, fm
				break
			}
		}
	}
	return fCPU, fMem, e.Spec.NominalMV
}

// placementOf returns the placement a policy gives a class: memory-
// intensive work is consolidated (clustered) under the placement-aware
// policies; the naive policies pack everything.
func placementOf(spec BranchSpec, class Class) sim.Placement {
	if spec.HasPlacement {
		return spec.Placement
	}
	switch spec.Config {
	case experiments.Placement, experiments.Optimal:
		if class == ClassMemory {
			return sim.Clustered
		}
		return sim.Spreaded
	default:
		return sim.Clustered
	}
}

// setWatts evaluates instantaneous power for the subset of procs active
// at time t (StartS ≤ t < finish; pass math.Inf(1) finishes via pFin when
// empty). Used both for the cap search (before finishes exist) and the
// segment integration.
func (e *Estimator) setWatts(procs []Proc, spec BranchSpec, fCPU, fMem chip.MHz, v chip.Millivolts, tInf float64, t float64) float64 {
	busy := 0
	util := 0
	effFSum := 0.0
	pmdFSum := 0.0
	acc := 0.0
	fCPUHz := fCPU.Hz()
	fMemHz := fMem.Hz()
	for i := range procs {
		if procs[i].StartS > t {
			continue
		}
		if len(e.pFin) == len(procs) && e.pFin[i] <= t {
			continue
		}
		_ = tInf
		b := procs[i].Bench
		n := procs[i].Threads
		cl := ClassOf(b)
		fHz, fGHz := fCPUHz, fCPU.GHz()
		if cl == ClassMemory {
			fHz, fGHz = fMemHz, fMem.GHz()
		}
		u := utilPMDsFor(e.Spec, placementOf(spec, cl), n)
		busy += n
		util += u
		effFSum += float64(n) * procEff(b, fGHz) * fHz
		pmdFSum += float64(u) * fHz
		acc += float64(n) * b.L3RatePer1M(fGHz, 1, 1) * fHz / 1e6
	}
	if busy > e.Spec.Cores {
		busy = e.Spec.Cores
	}
	if util > e.Spec.PMDs() {
		util = e.Spec.PMDs()
	}
	return e.watts(v, busy, util, effFSum, pmdFSum, acc, e.Spec.MaxFreq.Hz())
}

// voltageAt picks the rail for the active set at time t under the
// policy's voltage discipline.
func (e *Estimator) voltageAt(procs []Proc, spec BranchSpec, fCPU, fMem chip.MHz, t float64) chip.Millivolts {
	switch spec.Config {
	case experiments.Baseline, experiments.Placement:
		return e.Spec.NominalMV
	}
	// Safe-Vmin disciplines: the envelope of the utilized-PMD count at
	// the highest active frequency class.
	util := 0
	anyCPU := false
	for i := range procs {
		if procs[i].StartS > t {
			continue
		}
		if len(e.pFin) == len(procs) && e.pFin[i] <= t {
			continue
		}
		cl := ClassOf(procs[i].Bench)
		if cl == ClassCPU {
			anyCPU = true
		}
		util += utilPMDsFor(e.Spec, placementOf(spec, cl), procs[i].Threads)
	}
	if util > e.Spec.PMDs() {
		util = e.Spec.PMDs()
	}
	f := fMem
	if anyCPU || spec.Config == experiments.SafeVmin {
		f = fCPU
	}
	return e.envAt(e.freqClassOf(f), util)
}

// mixOf classifies a process set by its thread-weighted memory share.
func mixOf(procs []Proc) int {
	total, mem := 0, 0
	for i := range procs {
		total += procs[i].Threads
		if ClassOf(procs[i].Bench) == ClassMemory {
			mem += procs[i].Threads
		}
	}
	if total == 0 {
		return int(experiments.MixBalanced)
	}
	share := float64(mem) / float64(total)
	switch {
	case share >= 0.75:
		return int(experiments.MixMemory)
	case share <= 0.25:
		return int(experiments.MixCPU)
	default:
		return int(experiments.MixBalanced)
	}
}

// EstimateSet answers one hypothetical branch over a process set in
// closed form: per-process completion from the roofline model, piecewise
// power integration over the shrinking active set, fitted solo and
// policy corrections applied. Zero allocations after the scratch buffers
// warm up to the set size.
func (e *Estimator) EstimateSet(procs []Proc, spec BranchSpec, horizonS float64, untilIdle bool) SetEstimate {
	e.grow(len(procs))
	fCPU, fMem, _ := e.classFreqs(procs, spec)
	pc := e.Model.policyCell(int(spec.Config), mixOf(procs))

	// Per-process completion times (policy-corrected timeline).
	maxFin := 0.0
	for i := range procs {
		b := procs[i].Bench
		cl := ClassOf(b)
		f := fCPU
		if cl == ClassMemory {
			f = fMem
		}
		fc := e.freqClassOf(f)
		pl := placementOf(spec, cl)
		cell := e.Model.soloCell(int(fc), int(pl), int(cl))
		t := procs[i].RemFrac * soloTime(b, procs[i].Threads, f.GHz()) * cell.TimeRatio * pc.TimeRatio
		fin := procs[i].StartS + t
		e.pStart = append(e.pStart, procs[i].StartS)
		e.pFin = append(e.pFin, fin)
		e.pClass = append(e.pClass, int(cl))
		e.pThreads = append(e.pThreads, procs[i].Threads)
		e.pEffF = append(e.pEffF, 0)
		e.pAcc = append(e.pAcc, 0)
		if fin > maxFin {
			maxFin = fin
		}
	}

	horizon := horizonS
	if untilIdle && maxFin < horizon {
		horizon = maxFin
	}

	// Event timeline: starts and finishes inside the horizon, insertion-
	// sorted into scratch.
	e.evs = append(e.evs, 0)
	for i := range e.pFin {
		e.insertEvent(e.pStart[i], horizon)
		e.insertEvent(e.pFin[i], horizon)
	}
	e.insertEvent(horizon, horizon)

	// Integrate power across segments; sample each segment's midpoint for
	// membership so boundary ties resolve consistently.
	energy := 0.0
	peakV := chip.Millivolts(0)
	for s := 0; s+1 < len(e.evs); s++ {
		t0, t1 := e.evs[s], e.evs[s+1]
		if t1 <= t0 {
			continue
		}
		mid := t0 + (t1-t0)/2
		v := e.voltageAt(procs, spec, fCPU, fMem, mid)
		if v > peakV {
			peakV = v
		}
		w := e.setWatts(procs, spec, fCPU, fMem, v, math.Inf(1), mid) * pc.PowerRatio
		energy += w * (t1 - t0)
	}

	out := SetEstimate{Seconds: horizon, EnergyJ: energy, VoltageMV: peakV}
	if horizon > 0 {
		out.AvgPowerW = energy / horizon
	}
	for i := range e.pFin {
		switch {
		case e.pFin[i] <= horizon:
			out.Completed++
			if e.pFin[i] > out.MakespanS {
				out.MakespanS = e.pFin[i]
			}
			e.dur = append(e.dur, e.pFin[i]-e.pStart[i])
		case e.pStart[i] > horizon:
			out.Pending++
		default:
			out.Running++
		}
	}
	// Nearest-rank quantiles over completed runtimes.
	if n := len(e.dur); n > 0 {
		insertionSort(e.dur)
		out.P50RuntimeS = e.dur[RankIndex(n, 0.50)]
		out.P99RuntimeS = e.dur[RankIndex(n, 0.99)]
	}
	return out
}

// insertEvent inserts t into the sorted event scratch, dropping points
// outside (0, horizon] and duplicates.
func (e *Estimator) insertEvent(t, horizon float64) {
	if t <= 0 || t > horizon || math.IsInf(t, 1) {
		return
	}
	i := len(e.evs)
	e.evs = append(e.evs, 0)
	for i > 0 && e.evs[i-1] > t {
		e.evs[i] = e.evs[i-1]
		i--
	}
	if i > 0 && e.evs[i-1] == t {
		e.evs = e.evs[:len(e.evs)-1]
		return
	}
	e.evs[i] = t
}

// insertionSort sorts a small scratch slice in place without allocating.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// RankIndex is the nearest-rank quantile index for n > 0 sorted samples:
// the ⌈q·n⌉-th smallest, 0-based. Every p50/p99 runtime of the API, from
// the simulator or the surrogate, is read through it.
func RankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// EstimateWorkload answers the Table IV question for a whole arrival
// schedule under one policy, instantly: the analytic counterpart of
// experiments.Evaluate. Allocates the process set; the per-policy core is
// EstimateSet.
func (e *Estimator) EstimateWorkload(wl *wlgen.Workload, cfg experiments.SystemConfig) SetEstimate {
	procs := make([]Proc, len(wl.Arrivals))
	for i, a := range wl.Arrivals {
		procs[i] = Proc{Bench: a.Bench, Threads: a.Threads, StartS: a.At, RemFrac: 1}
	}
	return e.EstimateSet(procs, BranchSpec{Config: cfg}, math.MaxFloat64, true)
}
