// Package workload provides analytic behaviour models of the benchmark
// programs used by the paper: the NAS Parallel Benchmarks (NPB v3.3.1),
// PARSEC v3.0, and SPEC CPU2006.
//
// The paper runs real binaries; this reproduction cannot, so each program
// is modelled by the small set of parameters that the paper's analysis
// actually depends on:
//
//   - how many core cycles of work it represents (instruction count and
//     core CPI),
//   - how often it reaches below the L2 into the L3/DRAM subsystem (the
//     L3C access rate that drives the paper's CPU- vs memory-intensive
//     classification, Fig. 9),
//   - how much each such access stalls the pipeline (which makes execution
//     time partially frequency-invariant, Figs. 8/11/12),
//   - how sensitive it is to sharing a PMD's L2 with a sibling thread
//     (which creates the clustered/spreaded energy split of Fig. 7), and
//   - small electrical idiosyncrasies (switching activity, per-workload
//     Vmin offset, droop event rate).
//
// Two benchmark groups are exposed: CharacterizationSet (the 25 programs of
// Figs. 3-12: 6 NPB, 6 PARSEC, 13 SPEC) and GeneratorPool (the 35 programs
// the workload generator draws from: all 29 SPEC CPU2006 plus 6 NPB,
// Sec. VI-B).
package workload

import (
	"errors"
	"fmt"
	"sort"
)

// Suite identifies the benchmark suite a program belongs to.
type Suite int

const (
	// NPB is the NAS Parallel Benchmark suite v3.3.1 (parallel).
	NPB Suite = iota
	// PARSEC is the PARSEC v3.0 suite (parallel).
	PARSEC
	// SPECInt is the SPEC CPU2006 integer component (single-threaded).
	SPECInt
	// SPECFP is the SPEC CPU2006 floating-point component (single-threaded).
	SPECFP
)

// String names the suite.
func (s Suite) String() string {
	switch s {
	case NPB:
		return "NPB"
	case PARSEC:
		return "PARSEC"
	case SPECInt:
		return "SPEC CPU2006 INT"
	case SPECFP:
		return "SPEC CPU2006 FP"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// refGHz is the reference clock at which the catalog's observable targets
// (L3C access rate, runtime) are specified: the X-Gene 3 maximum frequency.
const refGHz = 3.0

// Benchmark is the analytic model of one program.
//
// The execution-time model for one thread running I instructions on a core
// clocked at f GHz is
//
//	cycles = I*CPIBase + I*MemPerInstr*StallNs*f
//	T      = cycles/f = I*CPIBase/f + I*MemPerInstr*StallNs
//
// The second term is frequency-invariant: it is wall-clock time spent
// waiting on the L3/DRAM, which does not speed up with the core clock.
// MemPerInstr and StallNs are inflated at run time by L2-sharing and
// bandwidth-contention factors computed by the simulator.
type Benchmark struct {
	Name     string
	Suite    Suite
	Parallel bool // true: one process computes with N threads (NPB/PARSEC)

	// CPIBase is cycles/instruction with an ideal memory system.
	CPIBase float64
	// MemPerInstr is the L3C (beyond-L2) accesses per instruction in an
	// unshared-L2, uncontended run. Derived from L3Per1MTarget.
	MemPerInstr float64
	// StallNs is the average exposed pipeline stall per L3C access in
	// nanoseconds (post-MLP), uncontended.
	StallNs float64
	// L2ShareSensitivity in [0,1] scales how much MemPerInstr inflates
	// when the sibling core of the PMD is busy (shared 256KB L2).
	L2ShareSensitivity float64
	// SerialFrac is the Amdahl serial fraction for parallel programs.
	SerialFrac float64
	// Instructions is the total dynamic instruction count of the
	// reference input (per instance; parallel programs divide this work
	// across their threads).
	Instructions float64
	// Activity is the average switching-activity factor in (0,1] used by
	// the dynamic power model; CPU-intensive codes toggle more logic.
	Activity float64
	// VminOffsetMV is the program's safe-Vmin margin in millivolts below
	// the configuration's class envelope (always <= 0; the envelope is
	// the worst case over programs). Droop-heavy memory-intensive codes
	// sit at the envelope (0); the most CPU-intensive codes sit up to
	// 10 mV below it. The margin is amplified in 1-2-core runs and
	// damped as thread count grows (Fig. 3 vs Fig. 4).
	VminOffsetMV int
	// DroopPer1M is the benchmark's voltage-droop event rate per million
	// cycles when it keeps its allocation class's PMDs busy (Fig. 6).
	DroopPer1M float64

	// L3Per1MTarget is the catalog's specified L3C accesses per 1M cycles
	// at the reference clock (Fig. 9 observable); MemPerInstr is derived
	// from it at catalog construction.
	L3Per1MTarget float64
}

// def is the compact literal used to build the catalog. The two primary
// observables — the L3C access rate (l3Per1M) and the fraction of
// execution time spent stalled on memory at the reference clock (memFrac)
// — determine the internal MemPerInstr and StallNs parameters:
//
//	StallNs     = memFrac·1e6 / (l3Per1M·refGHz)
//	MemPerInstr = l3Per1M·cpi / ((1-memFrac)·1e6)
//
// so that the model reproduces both targets exactly in an uncontended run.
type def struct {
	name     string
	suite    Suite
	parallel bool
	cpi      float64
	l3Per1M  float64 // L3C accesses per 1M cycles at 3 GHz, uncontended
	memFrac  float64 // fraction of time stalled on memory at 3 GHz
	l2Sens   float64
	serial   float64
	runSecs  float64 // single-thread runtime at 3 GHz, uncontended
	activity float64
	vminOff  int
	droop1M  float64
}

// build derives the internal parameters from the observable targets.
func build(d def) *Benchmark {
	if d.memFrac < 0 || d.memFrac >= 1 {
		panic(fmt.Sprintf("workload: %s: memFrac %v out of [0,1)", d.name, d.memFrac))
	}
	if d.l3Per1M <= 0 {
		panic(fmt.Sprintf("workload: %s: L3 rate must be positive", d.name))
	}
	stallNs := d.memFrac * 1e6 / (d.l3Per1M * refGHz)
	m := d.l3Per1M * d.cpi / ((1 - d.memFrac) * 1e6)
	cpiEff := d.cpi + float64(m*stallNs*refGHz)
	instr := d.runSecs * refGHz * 1e9 / cpiEff
	return &Benchmark{
		Name:               d.name,
		Suite:              d.suite,
		Parallel:           d.parallel,
		CPIBase:            d.cpi,
		MemPerInstr:        m,
		StallNs:            stallNs,
		L2ShareSensitivity: d.l2Sens,
		SerialFrac:         d.serial,
		Instructions:       instr,
		Activity:           d.activity,
		VminOffsetMV:       d.vminOff,
		DroopPer1M:         d.droop1M,
		L3Per1MTarget:      d.l3Per1M,
	}
}

// MemoryIntensiveThreshold is the L3C accesses-per-1M-cycles level that
// separates memory-intensive from CPU-intensive programs (Sec. IV-B).
const MemoryIntensiveThreshold = 3000.0

// MemoryIntensive reports the catalog ground truth for the program's class:
// whether its uncontended L3C access rate exceeds the 3K/1M-cycles
// threshold. The online daemon must *discover* this through counters; this
// method exists for test oracles and figure labels.
func (b *Benchmark) MemoryIntensive() bool {
	return b.L3Per1MTarget >= MemoryIntensiveThreshold
}

// CPIAt returns the effective CPI at core frequency fGHz with the given
// multiplicative inflation factors on memory accesses (l2Infl) and on the
// per-access stall (contInfl); both are >= 1. The conversion keeps the
// product from fusing with the add on architectures with fused
// multiply-add.
func (b *Benchmark) CPIAt(fGHz, l2Infl, contInfl float64) float64 {
	m := b.MemPerInstr * l2Infl
	return b.CPIBase + float64(m*b.StallNs*contInfl*fGHz)
}

// SoloRuntime returns the uncontended single-thread execution time in
// seconds at core frequency fGHz.
func (b *Benchmark) SoloRuntime(fGHz float64) float64 {
	cpi := b.CPIAt(fGHz, 1, 1)
	return b.Instructions * cpi / (fGHz * 1e9)
}

// L3RatePer1M returns the model's L3C accesses per million cycles at
// frequency fGHz with the given inflation factors. Because memory stalls
// are frequency-invariant in wall-clock terms, the per-cycle rate rises
// slightly as frequency drops.
func (b *Benchmark) L3RatePer1M(fGHz, l2Infl, contInfl float64) float64 {
	m := b.MemPerInstr * l2Infl
	return 1e6 * m / b.CPIAt(fGHz, l2Infl, contInfl)
}

// catalog holds every modelled program keyed by name.
var catalog = map[string]*Benchmark{}

// ordered preserves the declaration order for deterministic listings.
var ordered []string

func register(d def) {
	if _, dup := catalog[d.name]; dup {
		panic("workload: duplicate benchmark " + d.name)
	}
	catalog[d.name] = build(d)
	ordered = append(ordered, d.name)
}

func init() {
	// --- NPB (parallel). CG and FT are the paper's most memory-intensive
	// programs (Fig. 8); EP is embarrassingly parallel and CPU-bound.
	register(def{"CG", NPB, true, 0.95, 12000, 0.88, 0.85, 0.02, 55, 0.62, 0, 95})
	register(def{"EP", NPB, true, 0.70, 150, 0.02, 0.03, 0.01, 60, 0.95, -8, 28})
	register(def{"FT", NPB, true, 0.90, 9500, 0.85, 0.80, 0.03, 50, 0.66, -1, 90})
	register(def{"IS", NPB, true, 1.00, 7000, 0.78, 0.70, 0.04, 25, 0.60, -1, 80})
	register(def{"LU", NPB, true, 0.85, 3400, 0.45, 0.45, 0.05, 70, 0.78, -3, 60})
	register(def{"MG", NPB, true, 0.90, 5500, 0.68, 0.60, 0.04, 45, 0.70, -2, 72})

	// --- PARSEC (parallel).
	register(def{"swaptions", PARSEC, true, 0.72, 180, 0.03, 0.03, 0.02, 55, 0.92, -9, 30})
	register(def{"blackscholes", PARSEC, true, 0.75, 420, 0.05, 0.08, 0.02, 40, 0.90, -7, 34})
	register(def{"fluidanimate", PARSEC, true, 0.88, 2600, 0.35, 0.35, 0.06, 60, 0.80, -3, 55})
	register(def{"canneal", PARSEC, true, 1.05, 6500, 0.80, 0.65, 0.08, 50, 0.58, -1, 78})
	register(def{"bodytrack", PARSEC, true, 0.82, 2000, 0.28, 0.30, 0.05, 45, 0.82, -4, 48})
	register(def{"dedup", PARSEC, true, 0.95, 4200, 0.55, 0.55, 0.07, 40, 0.68, -2, 66})

	// --- SPEC CPU2006 (single-threaded; the paper's 13-program subset
	// for characterization spans the intensity spectrum: namd is the most
	// CPU-intensive, milc among the most memory-intensive, Fig. 8).
	register(def{"namd", SPECFP, false, 0.68, 200, 0.03, 0.04, 0, 65, 0.96, -10, 26})
	register(def{"povray", SPECFP, false, 0.72, 350, 0.05, 0.05, 0, 55, 0.93, -9, 30})
	register(def{"hmmer", SPECInt, false, 0.74, 600, 0.08, 0.08, 0, 50, 0.90, -8, 33})
	register(def{"sjeng", SPECInt, false, 0.92, 900, 0.12, 0.12, 0, 55, 0.85, -6, 38})
	register(def{"h264ref", SPECInt, false, 0.80, 1500, 0.16, 0.15, 0, 60, 0.86, -5, 42})
	register(def{"gobmk", SPECInt, false, 0.98, 1300, 0.17, 0.18, 0, 50, 0.82, -5, 40})
	register(def{"perlbench", SPECInt, false, 0.95, 2200, 0.25, 0.25, 0, 55, 0.78, -4, 50})
	register(def{"bzip2", SPECInt, false, 0.90, 2500, 0.28, 0.30, 0, 45, 0.76, -3, 52})
	register(def{"gcc", SPECInt, false, 1.05, 2800, 0.33, 0.35, 0, 50, 0.74, -3, 56})
	register(def{"mcf", SPECInt, false, 1.20, 9500, 0.82, 0.75, 0, 55, 0.55, 0, 88})
	register(def{"milc", SPECFP, false, 1.00, 11000, 0.84, 0.80, 0, 50, 0.58, 0, 92})
	register(def{"libquantum", SPECInt, false, 0.95, 13000, 0.86, 0.82, 0, 45, 0.56, 0, 96})
	register(def{"lbm", SPECFP, false, 0.92, 14000, 0.88, 0.88, 0, 50, 0.54, 0, 98})

	// --- Remaining SPEC CPU2006 programs (generator pool only).
	register(def{"gamess", SPECFP, false, 0.70, 240, 0.04, 0.04, 0, 60, 0.94, -9, 27})
	register(def{"gromacs", SPECFP, false, 0.76, 700, 0.10, 0.10, 0, 55, 0.90, -7, 34})
	register(def{"calculix", SPECFP, false, 0.80, 850, 0.12, 0.12, 0, 60, 0.88, -6, 36})
	register(def{"tonto", SPECFP, false, 0.84, 1100, 0.14, 0.14, 0, 55, 0.86, -5, 38})
	register(def{"dealII", SPECFP, false, 0.86, 1700, 0.20, 0.20, 0, 50, 0.84, -4, 44})
	register(def{"cactusADM", SPECFP, false, 0.95, 3300, 0.42, 0.40, 0, 60, 0.72, -2, 58})
	register(def{"zeusmp", SPECFP, false, 0.92, 3800, 0.45, 0.45, 0, 55, 0.72, -2, 60})
	register(def{"wrf", SPECFP, false, 0.94, 3500, 0.44, 0.42, 0, 65, 0.74, -2, 58})
	register(def{"sphinx3", SPECFP, false, 0.98, 4500, 0.50, 0.50, 0, 50, 0.68, -1, 64})
	register(def{"astar", SPECInt, false, 1.05, 3900, 0.46, 0.45, 0, 50, 0.70, -2, 60})
	register(def{"omnetpp", SPECInt, false, 1.10, 5200, 0.62, 0.60, 0, 45, 0.62, -1, 72})
	register(def{"xalancbmk", SPECInt, false, 1.08, 4800, 0.55, 0.55, 0, 45, 0.64, -1, 68})
	register(def{"soplex", SPECFP, false, 1.02, 5600, 0.60, 0.60, 0, 50, 0.62, -1, 74})
	register(def{"leslie3d", SPECFP, false, 0.96, 6200, 0.65, 0.65, 0, 55, 0.62, -1, 76})
	register(def{"bwaves", SPECFP, false, 0.94, 7800, 0.72, 0.72, 0, 60, 0.58, 0, 84})
	register(def{"GemsFDTD", SPECFP, false, 0.98, 8600, 0.75, 0.75, 0, 55, 0.56, 0, 86})
}

// ErrUnknownBenchmark is the sentinel behind every failed catalog lookup;
// the public facade re-exports it as avfs.ErrUnknownBenchmark and the
// HTTP service maps it to 404.
var ErrUnknownBenchmark = errors.New("workload: unknown benchmark")

// ByName returns the model of a program, or an error wrapping
// ErrUnknownBenchmark for unknown names.
func ByName(name string) (*Benchmark, error) {
	b, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBenchmark, name)
	}
	return b, nil
}

// MustByName is ByName for static names; it panics on unknown names.
func MustByName(name string) *Benchmark {
	b, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// All returns every modelled program in declaration order.
func All() []*Benchmark {
	out := make([]*Benchmark, 0, len(ordered))
	for _, n := range ordered {
		out = append(out, catalog[n])
	}
	return out
}

// characterizationNames lists the paper's 25-benchmark study set
// (Sec. II-B): 6 NPB + 6 PARSEC parallel programs and 13 SPEC CPU2006
// single-threaded programs.
var characterizationNames = []string{
	"CG", "EP", "FT", "IS", "LU", "MG",
	"swaptions", "blackscholes", "fluidanimate", "canneal", "bodytrack", "dedup",
	"namd", "povray", "hmmer", "sjeng", "h264ref", "gobmk", "perlbench",
	"bzip2", "gcc", "mcf", "milc", "libquantum", "lbm",
}

// CharacterizationSet returns the paper's 25-benchmark set in its
// canonical order.
func CharacterizationSet() []*Benchmark {
	out := make([]*Benchmark, len(characterizationNames))
	for i, n := range characterizationNames {
		out[i] = catalog[n]
	}
	return out
}

// GeneratorPool returns the 35-program pool of the workload generator
// (Sec. VI-B): all 29 SPEC CPU2006 programs plus the 6 NPB programs.
func GeneratorPool() []*Benchmark {
	var out []*Benchmark
	for _, n := range ordered {
		b := catalog[n]
		if b.Suite == NPB || b.Suite == SPECInt || b.Suite == SPECFP {
			out = append(out, b)
		}
	}
	return out
}

// SortByMemoryIntensity returns a copy of bs ordered from the most
// CPU-intensive to the most memory-intensive (the ordering used on the
// x-axes of Figs. 7, 11 and 12).
func SortByMemoryIntensity(bs []*Benchmark) []*Benchmark {
	out := make([]*Benchmark, len(bs))
	copy(out, bs)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].L3Per1MTarget < out[j].L3Per1MTarget
	})
	return out
}
