// Package power implements the analytic power and energy model of the PCP
// (Processor ComPlex) power domain of the X-Gene chips: cores, L2 caches
// (per PMD), L3 cache, and memory controllers — the domain whose supply
// voltage the SLIMpro regulator controls and whose consumption dominates
// the chip (Sec. II-A of the paper).
//
// The model is the standard CMOS decomposition
//
//	P = Σ_cores  C_core·V²·f·activity·util     (core dynamic)
//	  + Σ_PMDs   C_pmd·V²·f·gate               (L2 + clock tree per PMD)
//	  + P_L3·(V/Vnom)²                         (L3 + fabric)
//	  + P_mem·memUtil·(V/Vnom)²                (memory controllers)
//	  + P_leak·(V/Vnom)³                       (leakage, superlinear in V)
//
// Coefficients are calibrated per chip so that full-load power sits inside
// the TDP envelope of Table I and so that the relative savings of
// undervolting, frequency reduction, and PMD consolidation land in the
// bands the paper reports (Tables III/IV). Absolute watts are simulator
// watts, not silicon watts.
package power

import (
	"fmt"
	"math"
	"math/bits"

	"avfs/internal/chip"
)

// Coefficients hold the calibrated per-chip constants of the model.
type Coefficients struct {
	// CoreCapF is the effective switched capacitance of one core in
	// farads (appears in C·V²·f).
	CoreCapF float64
	// PMDCapF is the effective switched capacitance of one PMD's shared
	// uncore (L2, clock distribution).
	PMDCapF float64
	// IdlePMDFactor scales PMD uncore power when the PMD is clock-gated
	// (no runnable thread on either core).
	IdlePMDFactor float64
	// IdleCoreFactor scales core dynamic power for an idle (WFI) core on
	// an active PMD.
	IdleCoreFactor float64
	// L3Watts is L3+fabric power at nominal voltage.
	L3Watts float64
	// MemWatts is the memory-controller power at full memory-bandwidth
	// utilization and nominal voltage.
	MemWatts float64
	// LeakWatts is total PCP leakage at nominal voltage.
	LeakWatts float64
}

// CoefficientsFor returns the calibrated constants for a chip model.
func CoefficientsFor(m chip.Model) Coefficients {
	switch m {
	case chip.XGene2:
		// 28 nm planar bulk: higher per-operation energy (dynamic power
		// dominates), a far smaller chip than X-Gene 3.
		return Coefficients{
			CoreCapF:       1.35e-9,
			PMDCapF:        0.34e-9,
			IdlePMDFactor:  0.05,
			IdleCoreFactor: 0.03,
			L3Watts:        0.70,
			MemWatts:       1.80,
			LeakWatts:      1.50,
		}
	case chip.XGene3:
		// 16 nm FinFET: lower voltage, much larger core count and L3.
		return Coefficients{
			CoreCapF:       1.05e-9,
			PMDCapF:        0.25e-9,
			IdlePMDFactor:  0.05,
			IdleCoreFactor: 0.03,
			L3Watts:        3.00,
			MemWatts:       6.00,
			LeakWatts:      5.00,
		}
	}
	panic(fmt.Sprintf("power: unknown chip model %v", m))
}

// Scaled returns a copy with the switched-capacitance terms multiplied by
// capRatio and the fixed-watt terms (L3, memory controllers, leakage) by
// staticRatio — the decomposition a technology-node projection needs
// (internal/surrogate): capacitance follows power/(V²·f) scaling, while
// the watt-denominated terms follow raw power scaling.
func (c Coefficients) Scaled(capRatio, staticRatio float64) Coefficients {
	c.CoreCapF *= capRatio
	c.PMDCapF *= capRatio
	c.L3Watts *= staticRatio
	c.MemWatts *= staticRatio
	c.LeakWatts *= staticRatio
	return c
}

// CoreState is the per-core activity input to the model for one instant.
type CoreState struct {
	// Busy reports whether a thread is currently scheduled on the core.
	Busy bool
	// Activity is the switching-activity factor of the running thread in
	// (0,1]; ignored when idle. Memory-bound threads stall more and
	// toggle less logic.
	Activity float64
	// StallFrac is the fraction of cycles the running thread spends
	// stalled on memory; stalled cycles burn less dynamic power.
	StallFrac float64
}

// State is the whole-chip instantaneous operating point.
type State struct {
	Voltage chip.Millivolts
	// PMDFreq is the programmed frequency of each PMD.
	PMDFreq []chip.MHz
	// Cores holds one entry per core (core i belongs to PMD i/2).
	Cores []CoreState
	// MemUtil is the utilization of the shared L3/DRAM path in [0,1].
	MemUtil float64
}

// NewState returns a State shaped for spec with every core idle and all
// PMDs unprogrammed. Hot loops keep one such State and refill it in place
// each evaluation instead of reallocating the PMDFreq/Cores slices.
func NewState(spec *chip.Spec) State {
	return State{
		PMDFreq: make([]chip.MHz, spec.PMDs()),
		Cores:   make([]CoreState, spec.Cores),
	}
}

// Breakdown is the instantaneous power decomposition in watts.
type Breakdown struct {
	CoreDynamic float64
	PMDUncore   float64
	L3Fabric    float64
	MemCtl      float64
	Leakage     float64
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.CoreDynamic + b.PMDUncore + b.L3Fabric + b.MemCtl + b.Leakage
}

// Model evaluates PCP power for a given chip.
type Model struct {
	Spec  *chip.Spec
	Coeff Coefficients
}

// NewModel builds the calibrated model for a chip.
func NewModel(spec *chip.Spec) *Model {
	return &Model{Spec: spec, Coeff: CoefficientsFor(spec.Model)}
}

// stallActivityFloor is the fraction of a core's activity that persists
// while the pipeline is stalled on memory (clocks keep toggling).
const stallActivityFloor = 0.55

// Power evaluates the instantaneous power breakdown at state st.
// It panics if the state's shape does not match the chip topology.
func (m *Model) Power(st State) Breakdown {
	if len(st.PMDFreq) != m.Spec.PMDs() || len(st.Cores) != m.Spec.Cores {
		panic(fmt.Sprintf("power: state shape %d PMDs/%d cores does not match %s (%d/%d)",
			len(st.PMDFreq), len(st.Cores), m.Spec.Name, m.Spec.PMDs(), m.Spec.Cores))
	}
	v := st.Voltage.Volts()
	vn := m.Spec.NominalMV.Volts()
	v2 := v * v
	rel2 := v2 / (vn * vn)
	rel3 := rel2 * (v / vn)

	// The float64 conversions in the loop keep each product from fusing
	// with its add on architectures with fused multiply-add.
	var b Breakdown
	for p := 0; p < m.Spec.PMDs(); p++ {
		fHz := st.PMDFreq[p].Hz()
		c0, c1 := m.Spec.CoresOf(chip.PMDID(p))
		pmdBusy := st.Cores[c0].Busy || st.Cores[c1].Busy
		gate := m.Coeff.IdlePMDFactor
		if pmdBusy {
			gate = 1.0
		}
		b.PMDUncore += float64(m.Coeff.PMDCapF * v2 * fHz * gate)
		for _, ci := range []chip.CoreID{c0, c1} {
			cs := st.Cores[ci]
			if !cs.Busy {
				b.CoreDynamic += float64(m.Coeff.CoreCapF * v2 * fHz * m.Coeff.IdleCoreFactor)
				continue
			}
			// A stalled cycle burns only the activity floor.
			eff := cs.Activity * (float64((1-cs.StallFrac)*1.0) + float64(cs.StallFrac*stallActivityFloor))
			b.CoreDynamic += float64(m.Coeff.CoreCapF * v2 * fHz * eff)
		}
	}
	b.L3Fabric = m.Coeff.L3Watts * rel2
	b.MemCtl = m.Coeff.MemWatts * clamp01(st.MemUtil) * rel2
	b.Leakage = m.Coeff.LeakWatts * rel3
	return b
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// CoreDynamicPower returns the dynamic power of a single core at voltage
// v and frequency f in state cs — the per-core term of the aggregate
// model, exposed so the simulator can attribute energy to the thread
// occupying the core.
func (m *Model) CoreDynamicPower(v chip.Millivolts, f chip.MHz, cs CoreState) float64 {
	vv := v.Volts()
	// As in Power, the conversions keep the sum from fusing.
	if !cs.Busy {
		return m.Coeff.CoreCapF * vv * vv * f.Hz() * m.Coeff.IdleCoreFactor
	}
	eff := cs.Activity * (float64((1-cs.StallFrac)*1.0) + float64(cs.StallFrac*stallActivityFloor))
	return m.Coeff.CoreCapF * vv * vv * f.Hz() * eff
}

// IdlePower returns the chip's power with no runnable threads, all PMDs at
// frequency f and voltage v — the floor the server pays during idle phases.
func (m *Model) IdlePower(v chip.Millivolts, f chip.MHz) float64 {
	st := State{
		Voltage: v,
		PMDFreq: make([]chip.MHz, m.Spec.PMDs()),
		Cores:   make([]CoreState, m.Spec.Cores),
	}
	for i := range st.PMDFreq {
		st.PMDFreq[i] = f
	}
	return m.Power(st).Total()
}

// quantumBits sets the unit of every time-integrated energy accumulator:
// 2^-40 J, fine enough that an hour's per-tick rounding stays near 1e-11
// relative, coarse enough that a tick below 2^24 J fits a uint64.
const quantumBits = 40

// Quantum is the energy accumulators' unit in joules.
const Quantum = 1.0 / (1 << quantumBits)

// Quanta returns the energy of watts held for dt seconds in whole quanta,
// rounded to nearest, ties to even. It panics on a negative energy (a
// negative dt) or one outside a uint64 (sim.MaxTick keeps every tick's
// energy far inside it).
func Quanta(watts, dt float64) uint64 {
	// The conversion keeps the rounding below from fusing into this
	// product on architectures with fused multiply-add.
	q := float64(watts * dt * (1 << quantumBits))
	if !(q >= 0 && q < 0x1p64) {
		panic("power: a tick's energy is negative or outside a uint64 of quanta")
	}
	if q < 0x1p52 {
		// Below 2^52 the sum's ulp is 1, so adding 2^52 rounds q to an
		// integer; at or above it q already is one.
		q = q + 0x1p52 - 0x1p52
	}
	return uint64(q)
}

// Joules is an exact energy accumulator: an unsigned 128-bit count of
// quanta. Adding k ticks' quanta at once lands on the same integer as
// adding them one tick at a time, so batched and per-tick stepping agree
// bit for bit.
type Joules struct {
	Hi uint64 `json:"hi,omitempty"`
	Lo uint64 `json:"lo"`
}

// Add adds k×q quanta.
func (j *Joules) Add(q, k uint64) {
	hi, lo := bits.Mul64(q, k)
	var c uint64
	j.Lo, c = bits.Add64(j.Lo, lo, 0)
	j.Hi += hi + c
}

// Plus returns j+o.
func (j Joules) Plus(o Joules) Joules {
	lo, c := bits.Add64(j.Lo, o.Lo, 0)
	return Joules{Hi: j.Hi + o.Hi + c, Lo: lo}
}

// J returns the energy in joules, correctly rounded to float64.
func (j Joules) J() float64 {
	if j.Hi == 0 {
		return float64(j.Lo) * Quantum
	}
	// The top 64 bits of the 128-bit count, with every bit shifted out
	// folded into the lowest one so round-to-nearest-even sees it.
	n := bits.Len64(j.Hi)
	top := j.Hi<<(64-n) | j.Lo>>n
	if j.Lo<<(64-n) != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), n-quantumBits)
}

// TickEnergy is the energy of one tick per Breakdown component, in quanta:
// computed once per distinct tick and committed any number of times.
type TickEnergy struct {
	CoreDynamic uint64 `json:"core_dynamic"`
	PMDUncore   uint64 `json:"pmd_uncore"`
	L3Fabric    uint64 `json:"l3_fabric"`
	MemCtl      uint64 `json:"mem_ctl"`
	Leakage     uint64 `json:"leakage"`
}

// Quanta returns the energy of holding the breakdown for dt seconds.
func (b Breakdown) Quanta(dt float64) TickEnergy {
	return TickEnergy{
		CoreDynamic: Quanta(b.CoreDynamic, dt),
		PMDUncore:   Quanta(b.PMDUncore, dt),
		L3Fabric:    Quanta(b.L3Fabric, dt),
		MemCtl:      Quanta(b.MemCtl, dt),
		Leakage:     Quanta(b.Leakage, dt),
	}
}

// Meter integrates power over fixed-length ticks into exact energy per
// model component, and tracks averages. It is the simulator-side stand-in
// for the external power instrumentation the paper's measurements rely on.
type Meter struct {
	st    MeterState
	ticks uint64
	tick  float64
}

// Commit adds k ticks of dt seconds each, each drawing watts and the
// energy q.
func (e *Meter) Commit(q *TickEnergy, watts float64, k uint64, dt float64) {
	e.st.CoreDynamic.Add(q.CoreDynamic, k)
	e.st.PMDUncore.Add(q.PMDUncore, k)
	e.st.L3Fabric.Add(q.L3Fabric, k)
	e.st.MemCtl.Add(q.MemCtl, k)
	e.st.Leakage.Add(q.Leakage, k)
	e.ticks += k
	e.tick = dt
	if watts > e.st.PeakW {
		e.st.PeakW = watts
	}
}

// Total returns the accumulated energy in quanta: exactly the sum of the
// five components.
func (st *MeterState) Total() Joules {
	return st.CoreDynamic.Plus(st.PMDUncore).Plus(st.L3Fabric).Plus(st.MemCtl).Plus(st.Leakage)
}

// Energy returns the accumulated energy in joules.
func (e *Meter) Energy() float64 { return e.st.Total().J() }

// Breakdown returns the accumulated energy per component in joules (the
// Breakdown fields hold joules here, not watts).
func (e *Meter) Breakdown() Breakdown {
	return Breakdown{
		CoreDynamic: e.st.CoreDynamic.J(),
		PMDUncore:   e.st.PMDUncore.J(),
		L3Fabric:    e.st.L3Fabric.J(),
		MemCtl:      e.st.MemCtl.J(),
		Leakage:     e.st.Leakage.J(),
	}
}

// Seconds returns the accumulated time: the tick count times the tick.
func (e *Meter) Seconds() float64 { return float64(e.ticks) * e.tick }

// AveragePower returns accumulated energy divided by accumulated time,
// or 0 before any accumulation.
func (e *Meter) AveragePower() float64 {
	if e.ticks == 0 {
		return 0
	}
	return e.Energy() / e.Seconds()
}

// Peak returns the highest instantaneous power seen.
func (e *Meter) Peak() float64 { return e.st.PeakW }

// MeterState is the serializable state of a Meter (see the session
// snapshot machinery in internal/sim): the five component accumulators in
// quanta and the peak. The time base is the owner's tick count and tick.
type MeterState struct {
	CoreDynamic Joules  `json:"core_dynamic"`
	PMDUncore   Joules  `json:"pmd_uncore"`
	L3Fabric    Joules  `json:"l3_fabric"`
	MemCtl      Joules  `json:"mem_ctl"`
	Leakage     Joules  `json:"leakage"`
	PeakW       float64 `json:"peak_w"`
}

// State captures the meter's accumulators.
func (e *Meter) State() MeterState { return e.st }

// Restore overwrites the meter with previously captured accumulators over
// ticks ticks of tick seconds.
func (e *Meter) Restore(st MeterState, ticks uint64, tick float64) {
	e.st, e.ticks, e.tick = st, ticks, tick
}
