// Package chip models the topology and electrical specification of the
// multicore server CPUs studied in the paper: Applied Micro (Ampere)
// X-Gene 2 and X-Gene 3.
//
// The unit conventions used across the whole repository are defined here:
// voltages are expressed in millivolts (type Millivolts), frequencies in
// megahertz (type MHz), power in watts (float64) and energy in joules
// (float64). Both studied chips share the same architectural shape: the
// cores are grouped in pairs called PMDs (Processor MoDules); every PMD has
// a private L2 cache shared by its two cores, every core has private L1
// caches, and the whole chip shares one L3 cache. Frequency can be set per
// PMD while the supply voltage of the PCP (Processor ComPlex) power domain
// is global to the chip and controlled through the SLIMpro management
// processor.
package chip

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Millivolts is a supply-voltage level in millivolts (mV).
type Millivolts int

// String renders the voltage as e.g. "870mV".
func (v Millivolts) String() string {
	var buf [24]byte
	return string(append(strconv.AppendInt(buf[:0], int64(v), 10), "mV"...))
}

// Volts converts the level to volts.
func (v Millivolts) Volts() float64 { return float64(v) / 1000.0 }

// MHz is a clock frequency in megahertz.
type MHz int

// String renders the frequency as e.g. "2400MHz".
func (f MHz) String() string {
	var buf [24]byte
	return string(append(strconv.AppendInt(buf[:0], int64(f), 10), "MHz"...))
}

// GHz converts the frequency to gigahertz.
func (f MHz) GHz() float64 { return float64(f) / 1000.0 }

// Hz converts the frequency to hertz.
func (f MHz) Hz() float64 { return float64(f) * 1e6 }

// Model identifies one of the two chips reproduced from the paper.
type Model int

const (
	// XGene2 is the 8-core, 28 nm bulk CMOS part (nominal 980 mV, 2.4 GHz).
	XGene2 Model = iota
	// XGene3 is the 32-core, 16 nm FinFET part (nominal 870 mV, 3.0 GHz).
	XGene3
)

// String returns the marketing name of the model.
func (m Model) String() string {
	switch m {
	case XGene2:
		return "X-Gene 2"
	case XGene3:
		return "X-Gene 3"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Name is the model's wire name: xgene2 or xgene3.
func (m Model) Name() string {
	switch m {
	case XGene2:
		return "xgene2"
	case XGene3:
		return "xgene3"
	default:
		return m.String()
	}
}

// ErrUnknownModel rejects a wire name of neither chip.
var ErrUnknownModel = errors.New("chip: unknown model")

// ParseModel resolves a wire name, case-insensitively: a Name, the
// aliases x-gene2/xgene-2 and x-gene3/xgene-3, or "" for X-Gene 3.
func ParseModel(s string) (Model, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "xgene3", "x-gene3", "xgene-3":
		return XGene3, nil
	case "xgene2", "x-gene2", "xgene-2":
		return XGene2, nil
	}
	return XGene3, fmt.Errorf("%w: %q (want xgene2 or xgene3)", ErrUnknownModel, s)
}

// Process is the silicon technology node of a chip. It parameterizes the
// leakage component of the power model.
type Process int

const (
	// Bulk28nm is 28 nm planar bulk CMOS (X-Gene 2).
	Bulk28nm Process = iota
	// FinFET16nm is 16 nm FinFET (X-Gene 3).
	FinFET16nm
)

// String returns the human-readable node name.
func (p Process) String() string {
	switch p {
	case Bulk28nm:
		return "28nm bulk CMOS"
	case FinFET16nm:
		return "16nm FinFET"
	default:
		return fmt.Sprintf("Process(%d)", int(p))
	}
}

// CoreID identifies one core on a chip, in [0, Spec.Cores).
type CoreID int

// PMDID identifies one Processor MoDule (a pair of cores sharing an L2),
// in [0, Spec.PMDs()).
type PMDID int

// Spec is the static description of a chip: topology, cache hierarchy, and
// the electrical envelope (nominal voltage, frequency range and step).
//
// A Spec is immutable; the mutable run-time state (current voltage, per-PMD
// frequencies) lives in Chip.
type Spec struct {
	Model   Model
	Name    string
	Cores   int // total cores; PMDs = Cores/2
	Process Process

	// Electrical envelope.
	NominalMV   Millivolts // nominal PCP supply voltage
	MinSafeMV   Millivolts // absolute lowest voltage the regulator accepts
	VoltageStep Millivolts // regulator granularity

	MaxFreq  MHz // maximum core clock
	MinFreq  MHz // minimum core clock
	FreqStep MHz // 1/8 of MaxFreq on both chips (CPPC abstract scale)

	// Cache hierarchy (bytes).
	L1I int
	L1D int
	L2  int // per PMD
	L3  int // chip-wide

	// TDPWatts is the thermal design power of the part.
	TDPWatts float64

	// MemBandwidth is the aggregate L3+DRAM service capacity in
	// accesses/second used by the contention model.
	MemBandwidth float64
}

// PMDs returns the number of processor modules (core pairs).
func (s *Spec) PMDs() int { return s.Cores / 2 }

// PMDOf returns the PMD that hosts core c.
func (s *Spec) PMDOf(c CoreID) PMDID { return PMDID(int(c) / 2) }

// CoresOf returns the two cores of PMD p.
func (s *Spec) CoresOf(p PMDID) (CoreID, CoreID) {
	return CoreID(2 * int(p)), CoreID(2*int(p) + 1)
}

// ValidCore reports whether c is a core of this chip.
func (s *Spec) ValidCore(c CoreID) bool { return c >= 0 && int(c) < s.Cores }

// ValidPMD reports whether p is a PMD of this chip.
func (s *Spec) ValidPMD(p PMDID) bool { return p >= 0 && int(p) < s.PMDs() }

// HalfFreq returns the half-speed operating point (MaxFreq/2), the point at
// which the PMD clock switches from clock skipping to true clock division.
func (s *Spec) HalfFreq() MHz { return s.MaxFreq / 2 }

// FreqSteps returns the list of selectable frequency points from MinFreq to
// MaxFreq at FreqStep granularity, ascending. Both chips expose 1/8 steps
// of the maximum clock (CPPC abstract performance scale).
func (s *Spec) FreqSteps() []MHz {
	var steps []MHz
	for f := s.MaxFreq; f >= s.MinFreq; f -= s.FreqStep {
		steps = append(steps, f)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps
}

// ClampFreq snaps f into the selectable range, rounding down to the nearest
// step (the CPPC interface grants "up to" the requested performance).
func (s *Spec) ClampFreq(f MHz) MHz {
	if f >= s.MaxFreq {
		return s.MaxFreq
	}
	if f <= s.MinFreq {
		return s.MinFreq
	}
	// Snap to the step grid anchored at MaxFreq.
	stepsDown := (s.MaxFreq - f) / s.FreqStep
	if (s.MaxFreq-f)%s.FreqStep != 0 {
		stepsDown++
	}
	g := s.MaxFreq - stepsDown*s.FreqStep
	if g < s.MinFreq {
		return s.MinFreq
	}
	return g
}

// ClampVoltage snaps v into [MinSafeMV, NominalMV] on the regulator grid.
func (s *Spec) ClampVoltage(v Millivolts) Millivolts {
	if v > s.NominalMV {
		v = s.NominalMV
	}
	if v < s.MinSafeMV {
		v = s.MinSafeMV
	}
	rem := (v - s.MinSafeMV) % s.VoltageStep
	return v - rem
}

// XGene2Spec returns the specification of the X-Gene 2 (Table I of the
// paper): 8 ARMv8 cores in 4 PMDs, 28 nm, 980 mV nominal, 300 MHz–2.4 GHz.
func XGene2Spec() *Spec {
	return &Spec{
		Model:        XGene2,
		Name:         "X-Gene 2",
		Cores:        8,
		Process:      Bulk28nm,
		NominalMV:    980,
		MinSafeMV:    700,
		VoltageStep:  5,
		MaxFreq:      2400,
		MinFreq:      300,
		FreqStep:     300, // 1/8 of 2.4 GHz
		L1I:          32 << 10,
		L1D:          32 << 10,
		L2:           256 << 10,
		L3:           8 << 20,
		TDPWatts:     35,
		MemBandwidth: 0.35e9,
	}
}

// XGene3Spec returns the specification of the X-Gene 3 (Table I of the
// paper): 32 ARMv8 cores in 16 PMDs, 16 nm FinFET, 870 mV nominal,
// 375 MHz–3 GHz.
func XGene3Spec() *Spec {
	return &Spec{
		Model:        XGene3,
		Name:         "X-Gene 3",
		Cores:        32,
		Process:      FinFET16nm,
		NominalMV:    870,
		MinSafeMV:    650,
		VoltageStep:  5,
		MaxFreq:      3000,
		MinFreq:      375,
		FreqStep:     375, // 1/8 of 3 GHz
		L1I:          32 << 10,
		L1D:          32 << 10,
		L2:           256 << 10,
		L3:           32 << 20,
		TDPWatts:     125,
		MemBandwidth: 1.2e9,
	}
}

// SpecFor returns the spec for a model.
func SpecFor(m Model) *Spec {
	switch m {
	case XGene2:
		return XGene2Spec()
	case XGene3:
		return XGene3Spec()
	}
	panic(fmt.Sprintf("chip: unknown model %v", m))
}

// Chip is the mutable electrical state of one chip instance: the global PCP
// supply voltage and the per-PMD clock frequencies. It corresponds to what
// the SLIMpro management processor exposes to the running kernel.
type Chip struct {
	Spec *Spec

	voltage Millivolts
	pmdFreq []MHz

	// gen counts electrical-state changes (voltage or any PMD frequency).
	// Consumers cache derived state (safe-Vmin requirements, power-model
	// inputs) keyed on this counter; a no-op programming that lands on the
	// already-applied value does not advance it.
	gen uint64
}

// New creates a chip in its default power-on state: nominal voltage and all
// PMDs at maximum frequency.
func New(spec *Spec) *Chip {
	c := &Chip{
		Spec:    spec,
		voltage: spec.NominalMV,
		pmdFreq: make([]MHz, spec.PMDs()),
	}
	for i := range c.pmdFreq {
		c.pmdFreq[i] = spec.MaxFreq
	}
	return c
}

// Voltage returns the current PCP supply voltage.
func (c *Chip) Voltage() Millivolts { return c.voltage }

// SetVoltage programs the PCP voltage regulator through SLIMpro. The value
// is clamped to the regulator envelope and grid; the applied value is
// returned. Voltage is chip-global: all cores always share it.
func (c *Chip) SetVoltage(v Millivolts) Millivolts {
	if g := c.Spec.ClampVoltage(v); g != c.voltage {
		c.voltage = g
		c.gen++
	}
	return c.voltage
}

// Generation returns a counter that advances whenever the applied voltage
// or any PMD frequency actually changes. Equal generations guarantee an
// unchanged electrical state, so derived caches remain valid.
func (c *Chip) Generation() uint64 { return c.gen }

// PMDFreq returns the programmed frequency of PMD p.
func (c *Chip) PMDFreq(p PMDID) MHz {
	if !c.Spec.ValidPMD(p) {
		panic(fmt.Sprintf("chip: invalid PMD %d", p))
	}
	return c.pmdFreq[p]
}

// SetPMDFreq programs PMD p to frequency f (clamped to the CPPC grid) and
// returns the applied value. Frequency is per PMD: both cores of the pair
// always run at the same clock.
func (c *Chip) SetPMDFreq(p PMDID, f MHz) MHz {
	if !c.Spec.ValidPMD(p) {
		panic(fmt.Sprintf("chip: invalid PMD %d", p))
	}
	if g := c.Spec.ClampFreq(f); g != c.pmdFreq[p] {
		c.pmdFreq[p] = g
		c.gen++
	}
	return c.pmdFreq[p]
}

// SetAllFreq programs every PMD to frequency f and returns the applied value.
func (c *Chip) SetAllFreq(f MHz) MHz {
	g := c.Spec.ClampFreq(f)
	changed := false
	for i := range c.pmdFreq {
		if c.pmdFreq[i] != g {
			c.pmdFreq[i] = g
			changed = true
		}
	}
	if changed {
		c.gen++
	}
	return g
}

// CoreFreq returns the frequency of the PMD hosting core id.
func (c *Chip) CoreFreq(id CoreID) MHz { return c.PMDFreq(c.Spec.PMDOf(id)) }

// MaxPMDFreq returns the highest frequency currently programmed on any PMD
// in the given utilized set (or over all PMDs when utilized is nil). The
// chip-wide safe Vmin is governed by the fastest active PMD.
func (c *Chip) MaxPMDFreq(utilized []PMDID) MHz {
	var max MHz
	if utilized == nil {
		for _, f := range c.pmdFreq {
			if f > max {
				max = f
			}
		}
		return max
	}
	for _, p := range utilized {
		if f := c.PMDFreq(p); f > max {
			max = f
		}
	}
	return max
}

// Snapshot captures the current V/F state for logging and tests.
type Snapshot struct {
	Voltage Millivolts
	PMDFreq []MHz
}

// Snapshot returns a copy of the current electrical state.
func (c *Chip) Snapshot() Snapshot {
	fr := make([]MHz, len(c.pmdFreq))
	copy(fr, c.pmdFreq)
	return Snapshot{Voltage: c.voltage, PMDFreq: fr}
}
