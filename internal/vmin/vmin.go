// Package vmin models the safe minimum operating voltage (safe Vmin) of
// the X-Gene chips and provides the characterization harness that the
// paper uses to expose it (Sec. III).
//
// The model composes four effects, in the order of importance the paper
// establishes (Fig. 10):
//
//  1. Frequency class (clock division ~12% of nominal, one skipping step
//     ~3%): the base critical voltage per clock.FreqClass.
//  2. Core allocation (~4%): the droop magnitude class implied by how many
//     PMDs are simultaneously utilized (Table II) adds its worst droop on
//     top of the critical voltage.
//  3. Core-to-core static variation: each PMD/core has a fixed offset at
//     or below the class envelope (Fig. 4: X-Gene 2 PMD2 is the most
//     robust, PMD0 the most sensitive).
//  4. Workload (~1% in multicore): each program sits at or below the class
//     envelope by a program-specific margin that is amplified in single-
//     and two-core runs (up to 40 mV on X-Gene 2) and fades as the thread
//     count grows (≤10 mV at 4 threads, ~nothing at max threads, Fig. 3).
//
// The class-envelope table (what Table II reports and what the daemon
// programs) is the worst case over workloads and cores for the class, so a
// configuration running at its table value is safe for every program.
//
// Below the safe point the model exposes the cumulative failure
// probability (Fig. 5) and a fault taxonomy (SDC / timeout / hang / crash)
// so the characterization flow can reproduce the paper's unsafe-region
// sweeps.
package vmin

import (
	"fmt"
	"math/rand"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/droop"
	"avfs/internal/workload"
)

// classTable is the safe-Vmin class envelope in millivolts, indexed by
// droop magnitude class, for one frequency class of one chip.
type classTable [droop.NumClasses]chip.Millivolts

// envelope is the class table of one frequency class of one chip; ok
// marks the classes the chip has.
type envelope struct {
	ok bool
	mv classTable
}

// tables holds the calibrated envelopes, indexed by chip model and
// frequency class (an array, not a map: the requirement path looks one
// up per program on every recompute). X-Gene 3 values are Table II of the
// paper verbatim; X-Gene 2 values are constructed to honour the paper's
// reported percentages (see DESIGN.md §4).
var tables = [...][clock.DividedLow + 1]envelope{
	chip.XGene3: {
		clock.FullSpeed: {true, classTable{780, 800, 810, 830}},
		clock.HalfSpeed: {true, classTable{770, 780, 790, 820}},
	},
	chip.XGene2: {
		// Only droop classes 0 (1-2 PMDs) and 1 (3-4 PMDs) are reachable
		// on the 4-PMD X-Gene 2; higher entries repeat the envelope.
		clock.FullSpeed:  {true, classTable{875, 910, 910, 910}},
		clock.HalfSpeed:  {true, classTable{845, 880, 880, 880}},
		clock.DividedLow: {true, classTable{760, 795, 795, 795}},
	},
}

// classTableOf returns the envelope of a chip model's frequency class,
// or false when the chip has no such class.
func classTableOf(m chip.Model, fc clock.FreqClass) (*classTable, bool) {
	if uint(m) >= uint(len(tables)) || uint(fc) >= uint(len(tables[m])) || !tables[m][fc].ok {
		return nil, false
	}
	return &tables[m][fc].mv, true
}

// pmdStaticOffsets is the fixed per-PMD silicon offset (≤0) below the
// class envelope. Index 0 is PMD0. X-Gene 2 shows up to 30 mV core-to-core
// variation with PMD2 the most robust and PMD0/PMD1 the most sensitive
// (Fig. 4); X-Gene 3 shows up to 20 mV.
var pmdStaticOffsets = map[chip.Model][]chip.Millivolts{
	chip.XGene2: {0, -5, -28, -12},
	chip.XGene3: {
		0, -4, -12, -7, -18, -2, -9, -15,
		-5, -11, -3, -16, -8, -13, -6, -10,
	},
}

// coreSiblingOffset is the extra offset of the odd core of each PMD
// relative to the even one (small intra-PMD variation).
const coreSiblingOffset chip.Millivolts = -2

// workloadScale is the chip-specific amplitude of workload variation:
// planar 28 nm shows roughly twice the workload sensitivity of 16 nm
// FinFET (40 mV vs 20 mV single-core spread).
var workloadScale = map[chip.Model]float64{
	chip.XGene2: 1.0,
	chip.XGene3: 0.5,
}

// workloadDamping returns the amplification of a program's Vmin margin as
// a function of the number of active threads: large for single-core runs,
// fading to near zero in many-core runs (the paper's key observation that
// workload variation disappears as thread count grows).
func workloadDamping(threads int) float64 {
	switch {
	case threads <= 1:
		return 4.0
	case threads == 2:
		return 3.0
	case threads <= 4:
		return 1.0
	case threads <= 8:
		return 0.5
	default:
		return 0.25
	}
}

// Config describes one characterization configuration: which chip, which
// frequency class, which cores run threads, and (optionally) which program.
type Config struct {
	Spec      *chip.Spec
	FreqClass clock.FreqClass
	// Cores are the cores running threads. The utilized-PMD count (and
	// hence the droop class) and the static silicon offsets derive from
	// this set.
	Cores []chip.CoreID
	// Bench is the program under test; nil means "class envelope"
	// (worst case over programs).
	Bench *workload.Benchmark
	// PMDOffsets, when non-nil, replaces the default per-PMD static
	// silicon offsets — used to characterize other sampled chip
	// instances (chip-to-chip variation; see SampleChipOffsets). One
	// entry per PMD, each in [-maxChipOffsetMV, 0].
	PMDOffsets []chip.Millivolts
}

// Validate checks the configuration shape.
func (c *Config) Validate() error {
	if c.Spec == nil {
		return fmt.Errorf("vmin: nil chip spec")
	}
	if len(c.Cores) == 0 {
		return fmt.Errorf("vmin: configuration has no active cores")
	}
	var buf [idSetWords]uint64
	seen := newIDSet(&buf, c.Spec.Cores)
	for _, id := range c.Cores {
		if !c.Spec.ValidCore(id) {
			return fmt.Errorf("vmin: core %d out of range for %s", id, c.Spec.Name)
		}
		if seen.add(int(id)) {
			return fmt.Errorf("vmin: core %d listed twice", id)
		}
	}
	if _, ok := classTableOf(c.Spec.Model, c.FreqClass); !ok {
		return fmt.Errorf("vmin: %s has no %v frequency class", c.Spec.Name, c.FreqClass)
	}
	if c.PMDOffsets != nil {
		if len(c.PMDOffsets) != c.Spec.PMDs() {
			return fmt.Errorf("vmin: %d PMD offsets for %d PMDs", len(c.PMDOffsets), c.Spec.PMDs())
		}
		for i, o := range c.PMDOffsets {
			if o > 0 || o < -maxChipOffsetMV {
				return fmt.Errorf("vmin: PMD%d offset %v outside [-%v, 0]", i, o, maxChipOffsetMV)
			}
		}
	}
	return nil
}

// UtilizedPMDs returns the number of distinct PMDs hosting active cores.
// The configuration must be valid.
func (c *Config) UtilizedPMDs() int {
	var buf [idSetWords]uint64
	set := newIDSet(&buf, c.Spec.PMDs())
	n := 0
	for _, id := range c.Cores {
		if !set.add(int(c.Spec.PMDOf(id))) {
			n++
		}
	}
	return n
}

// idSetWords sizes the stack buffer of an idSet: 256 ids, far beyond
// either chip's 32 cores, so the requirement path never allocates.
const idSetWords = 4

// idSet is a bitset over the ids 0..n-1 of cores or PMDs.
type idSet []uint64

// newIDSet returns an empty set for ids below n, on buf when it fits.
func newIDSet(buf *[idSetWords]uint64, n int) idSet {
	if w := (n + 63) / 64; w > len(buf) {
		return make(idSet, w)
	}
	return buf[:]
}

// add inserts id and reports whether it was already present.
func (s idSet) add(id int) bool {
	w, b := id/64, uint64(1)<<(id%64)
	had := s[w]&b != 0
	s[w] |= b
	return had
}

// ClassEnvelope returns the safe-Vmin class envelope for a chip, frequency
// class and utilized-PMD count: the value Table II reports and the value
// the daemon programs (worst case over workloads and cores).
func ClassEnvelope(spec *chip.Spec, fc clock.FreqClass, utilizedPMDs int) chip.Millivolts {
	t, ok := classTableOf(spec.Model, fc)
	if !ok {
		panic(fmt.Sprintf("vmin: %s has no %v class", spec.Name, fc))
	}
	return t[droop.ClassOfPMDs(spec, utilizedPMDs)]
}

// GuardMargin returns the headroom in millivolts between a programmed
// supply voltage and the Table II class envelope of a configuration — the
// guard-band the telemetry layer tracks to show how close the daemon
// operates to the envelope. Negative values mean the programmed voltage
// is below the envelope (an emergency if the envelope is binding).
func GuardMargin(spec *chip.Spec, fc clock.FreqClass, utilizedPMDs int, programmed chip.Millivolts) chip.Millivolts {
	return programmed - ClassEnvelope(spec, fc, utilizedPMDs)
}

// staticOffset returns the silicon offset of the configuration: the least
// robust (closest to zero) offset among the active cores, since the chip
// fails at its weakest active core.
func staticOffset(c *Config) chip.Millivolts {
	offs := pmdStaticOffsets[c.Spec.Model]
	if c.PMDOffsets != nil {
		offs = c.PMDOffsets
	}
	worst := chip.Millivolts(-1000)
	for _, id := range c.Cores {
		o := offs[c.Spec.PMDOf(id)]
		if int(id)%2 == 1 {
			o += coreSiblingOffset
		}
		if o > worst {
			worst = o
		}
	}
	return worst
}

// SafeVmin returns the model's true safe minimum voltage for the
// configuration: the lowest level at which every run of the program
// completes correctly. With a nil Bench it returns the worst case over
// programs on the given cores.
func SafeVmin(c *Config) chip.Millivolts {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	env := ClassEnvelope(c.Spec, c.FreqClass, c.UtilizedPMDs())
	v := env + staticOffset(c)
	if c.Bench != nil {
		d := workloadDamping(len(c.Cores)) * workloadScale[c.Spec.Model]
		v += chip.Millivolts(float64(c.Bench.VminOffsetMV) * d)
	}
	if v < c.Spec.MinSafeMV {
		v = c.Spec.MinSafeMV
	}
	return v
}

// pfailWindowMV is the width of the unsafe transition region: pfail
// reaches 1 this many millivolts below the safe point.
const pfailWindowMV = 45.0

// ModelVersion identifies the Vmin model and characterization methodology
// for content-addressed caching (see internal/vmin/store). Any change that
// alters characterization output for a fixed configuration and salt — the
// class tables, static offsets, workload damping, the PFail window or
// curve shape, the faultMix split, the default trial counts, the seed
// derivation, or the sweep loop's RNG consumption — MUST bump this
// constant, otherwise persisted datasets would replay stale physics as
// fresh results.
const ModelVersion = "vmin-v1"

// PFail returns the probability that one execution of the configuration
// fails (SDC, crash, hang or timeout) at voltage v: exactly 0 at and above
// the safe Vmin, rising quadratically to 1 over the pfail window below it
// (the Fig. 5 shape — identical for configurations that share a frequency
// and allocation class).
func PFail(c *Config, v chip.Millivolts) float64 {
	return pfailBelow(SafeVmin(c), v)
}

// pfailBelow is PFail with the configuration's safe point precomputed, so
// sweep loops can evaluate the curve without re-validating the
// configuration at every run.
func pfailBelow(safe, v chip.Millivolts) float64 {
	if v >= safe {
		return 0
	}
	d := float64(safe-v) / pfailWindowMV
	if d >= 1 {
		return 1
	}
	return d * d
}

// FaultKind classifies an abnormal outcome of an unsafe-region run
// (Sec. III-A of the paper).
type FaultKind int

const (
	// None means the run completed correctly.
	None FaultKind = iota
	// SDC is a silent data corruption: the run completes but its output
	// mismatches the reference.
	SDC
	// Timeout is a run exceeding its time budget.
	Timeout
	// Hang is a live-locked or stuck thread.
	Hang
	// Crash is a hardware-error notification, kernel panic or reset.
	Crash
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case None:
		return "ok"
	case SDC:
		return "SDC"
	case Timeout:
		return "timeout"
	case Hang:
		return "hang"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// faultMix returns the fault-type distribution as a function of the depth
// below the safe point: shallow undervolting mostly corrupts data (ECC
// and SDC territory); deep undervolting crashes the system. The
// conversions keep each product from fusing with its add on
// architectures with fused multiply-add.
func faultMix(depthMV float64) (sdc, timeout, hang, crash float64) {
	t := depthMV / pfailWindowMV
	if t > 1 {
		t = 1
	}
	sdc = 0.55 - float64(0.35*t)
	timeout = 0.20 - float64(0.10*t)
	hang = 0.15 + float64(0.05*t)
	crash = 1 - sdc - timeout - hang
	return
}

// Outcome is the result of one simulated run at a voltage level.
type Outcome struct {
	Fault FaultKind
}

// RunOnce simulates a single execution of configuration c at voltage v
// using rng for the failure draw, mirroring one iteration of the paper's
// characterization loop. At or above the safe point (pfail exactly 0) no
// randomness is consumed — the sweep fast path in Characterize relies on
// that to skip clean levels without perturbing the RNG stream.
func RunOnce(c *Config, v chip.Millivolts, rng *rand.Rand) Outcome {
	safe := SafeVmin(c)
	p := pfailBelow(safe, v)
	if p == 0 || rng.Float64() >= p {
		return Outcome{Fault: None}
	}
	return Outcome{Fault: faultDraw(float64(safe-v), rng)}
}

// faultDraw picks the fault kind of a failed run from the depth-dependent
// mix, consuming exactly one rng draw.
func faultDraw(depthMV float64, rng *rand.Rand) FaultKind {
	sdc, timeout, hang, _ := faultMix(depthMV)
	r := rng.Float64()
	switch {
	case r < sdc:
		return SDC
	case r < sdc+timeout:
		return Timeout
	case r < sdc+timeout+hang:
		return Hang
	default:
		return Crash
	}
}
