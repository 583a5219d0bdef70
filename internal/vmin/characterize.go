package vmin

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"avfs/internal/chip"
)

// ErrNoSafeVmin is the typed failure of a voltage sweep that found no
// clean operating point (nominal itself failed the safe-run criterion).
// The public facade re-exports it as avfs.ErrNoSafeVmin.
var ErrNoSafeVmin = errors.New("vmin: no safe undervolt point")

// Characterization parameters from Sec. III-A of the paper.
const (
	// SafeRuns is the number of consecutive successful executions
	// required before a voltage level is declared safe.
	SafeRuns = 1000
	// SweepRuns is the number of executions per level used to estimate
	// pfail in the unsafe region.
	SweepRuns = 60
	// StepMV is the characterization voltage step.
	StepMV chip.Millivolts = 10
)

// FaultTally counts abnormal outcomes per FaultKind in a fixed array:
// index k-1 holds the count for kind k (None is never tallied). The flat
// array replaces the map[FaultKind]int this package used to expose, which
// cost one heap allocation per voltage level on the characterization hot
// path; it also makes LevelResult comparable and trivially serializable.
type FaultTally [4]int

// add tallies one abnormal outcome. k must not be None.
func (t *FaultTally) add(k FaultKind) { t[k-1]++ }

// Count returns the number of runs that failed with kind k (0 for None
// and out-of-range kinds).
func (t FaultTally) Count(k FaultKind) int {
	if k <= None || int(k) > len(t) {
		return 0
	}
	return t[k-1]
}

// Total returns the tallied failures summed across all fault kinds.
func (t FaultTally) Total() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

// Map materializes the tally as the map the pre-store API exposed; kinds
// with a zero count are omitted. Intended for rendering and tests, not for
// hot paths (it allocates).
func (t FaultTally) Map() map[FaultKind]int {
	m := map[FaultKind]int{}
	for i, c := range t {
		if c > 0 {
			m[FaultKind(i+1)] = c
		}
	}
	return m
}

// LevelResult summarizes the runs performed at one voltage level.
type LevelResult struct {
	Voltage chip.Millivolts
	Runs    int
	Fails   int
	// ByKind counts failures per fault type (SDC/timeout/hang/crash);
	// use ByKind.Count(kind) or ByKind.Map() to read it.
	ByKind FaultTally
}

// PFail returns the observed failure fraction at the level.
func (l LevelResult) PFail() float64 {
	if l.Runs == 0 {
		return 0
	}
	return float64(l.Fails) / float64(l.Runs)
}

// Characterization is the outcome of a full voltage sweep for one
// configuration: the discovered safe Vmin plus the per-level statistics of
// the unsafe region down to the complete-failure point.
type Characterization struct {
	Config   *Config
	SafeVmin chip.Millivolts
	// SafeFound reports whether any swept level (including nominal)
	// passed the safe-run criterion. When false — nominal voltage itself
	// failed — SafeVmin is zero and meaningless: the configuration has no
	// safe operating point on the sweep grid, and callers must not treat
	// nominal as safe.
	SafeFound bool
	// Levels are ordered from the first level below the safe point
	// downwards; the last level has pfail == 1 (or hit the regulator
	// floor).
	Levels []LevelResult
	// TotalRuns is the number of simulated executions spent.
	TotalRuns int
}

// SafeVminOrErr returns the discovered safe Vmin, or an error wrapping
// ErrNoSafeVmin when the sweep found no clean level — the typed-error
// alternative to checking SafeFound by hand.
func (c *Characterization) SafeVminOrErr() (chip.Millivolts, error) {
	if !c.SafeFound {
		return 0, fmt.Errorf("%w: %s %dT at %v", ErrNoSafeVmin,
			c.Config.Bench.Name, len(c.Config.Cores), c.Config.FreqClass)
	}
	return c.SafeVmin, nil
}

// seedFor derives a stable RNG seed from the configuration identity so
// characterizations are reproducible run to run. The core list is hashed
// in canonical (sorted) order: a configuration is a core *set*, so the
// same cores passed in a different order must characterize identically.
//
// The hash is 64-bit FNV-1a (hash/fnv's New64a) over the chip name, the
// frequency class byte, each core as two little-endian bytes and the
// benchmark name, computed inline so a sweep allocates nothing for it.
func seedFor(c *Config, salt int64) int64 {
	h := fnvString(fnvOffset64, c.Spec.Name)
	h = fnvByte(h, byte(c.FreqClass))
	var buf [64]chip.CoreID
	cores := append(buf[:0], c.Cores...)
	slices.Sort(cores)
	for _, id := range cores {
		h = fnvByte(fnvByte(h, byte(id)), byte(id>>8))
	}
	if c.Bench != nil {
		h = fnvString(h, c.Bench.Name)
	}
	return int64(h) ^ salt
}

// The 64-bit FNV-1a parameters.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvByte folds one byte into an FNV-1a hash.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvString folds the bytes of s into an FNV-1a hash.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// rngPool holds the sweeps' generators. A math/rand source is a 4.9 KB
// table, and re-seeding one puts it in exactly the state a fresh source
// of that seed starts in, so a sweep borrows a generator instead of
// building one. The source is sweepSource, math/rand's stream with a
// cheaper Seed.
var rngPool = sync.Pool{New: func() any { return rand.New(new(sweepSource)) }}

// Characterizer runs voltage sweeps against the Vmin model, reproducing
// the paper's methodology: walk down from nominal in StepMV steps, declare
// the safe Vmin as the lowest level that passes SafeRuns consecutive runs,
// then continue below it with SweepRuns runs per level until every run
// fails.
type Characterizer struct {
	// Salt perturbs the derived seeds; zero is the canonical dataset.
	Salt int64
	// SafeTrials and UnsafeTrials override SafeRuns/SweepRuns (used by
	// tests and benchmarks to trade fidelity for speed). Sentinel
	// semantics: 0 means "use the paper default", positive values
	// override it, and negative values are rejected — Characterize (via
	// TrialCounts) panics instead of silently selecting the default.
	SafeTrials   int
	UnsafeTrials int
}

// TrialCounts resolves the effective per-level run counts of the sweep:
// SafeTrials and UnsafeTrials override the paper's SafeRuns/SweepRuns when
// positive, zero selects the defaults, and negative values panic — a
// negative count is always a caller bug, and the old `> 0` check masked it
// by quietly falling back to the defaults. The resolved counts are part of
// a characterization's content-addressed cache identity (see the store
// package), which is why they are exported.
func (ch *Characterizer) TrialCounts() (safe, unsafe int) {
	if ch.SafeTrials < 0 || ch.UnsafeTrials < 0 {
		panic(fmt.Sprintf("vmin: negative trial counts (SafeTrials=%d, UnsafeTrials=%d)",
			ch.SafeTrials, ch.UnsafeTrials))
	}
	safe, unsafe = SafeRuns, SweepRuns
	if ch.SafeTrials > 0 {
		safe = ch.SafeTrials
	}
	if ch.UnsafeTrials > 0 {
		unsafe = ch.UnsafeTrials
	}
	return safe, unsafe
}

// runLevel executes n runs at voltage v and tallies the outcomes. The
// caller hoists the configuration's model safe point so each run skips
// re-validating the configuration; the RNG stream is identical to calling
// RunOnce n times. earlyStop aborts as soon as one failure is observed
// (the safe-point search only needs to know whether the level is clean).
//
// Fast path: at or above the safe point pfail is exactly 0 and RunOnce
// consumes no randomness on that branch, so a clean LevelResult for n
// untouched runs is bit-identical to performing them — the safe-region
// walk costs O(1) per level instead of O(n). docs/PERFORMANCE.md has the
// numbers.
func runLevel(safe, v chip.Millivolts, n int, rng *rand.Rand, earlyStop bool) LevelResult {
	res := LevelResult{Voltage: v}
	p := pfailBelow(safe, v)
	if p == 0 {
		res.Runs = n
		return res
	}
	depth := float64(safe - v)
	for i := 0; i < n; i++ {
		res.Runs++
		if rng.Float64() >= p {
			continue
		}
		res.Fails++
		res.ByKind.add(faultDraw(depth, rng))
		if earlyStop {
			return res
		}
	}
	return res
}

// Characterize performs the full sweep for one configuration.
func (ch *Characterizer) Characterize(c *Config) Characterization {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(seedFor(c, ch.Salt))
	return ch.sweep(c, rng)
}

// sweep is Characterize on a validated configuration, drawing from rng,
// which the caller has seeded with seedFor(c, ch.Salt).
func (ch *Characterizer) sweep(c *Config, rng *rand.Rand) Characterization {
	safeTrials, unsafeTrials := ch.TrialCounts()
	modelSafe := SafeVmin(c)
	out := Characterization{Config: c}

	// Phase 1: find the safe Vmin. Walk down from nominal; the safe
	// point is the lowest level whose SafeRuns runs are all clean. If
	// even the nominal level fails its criterion there is no safe level:
	// that outcome is recorded explicitly (SafeFound == false) instead of
	// silently claiming nominal is safe.
	var safe chip.Millivolts
	found := false
	for v := c.Spec.NominalMV; v >= c.Spec.MinSafeMV; v -= StepMV {
		lvl := runLevel(modelSafe, v, safeTrials, rng, true)
		out.TotalRuns += lvl.Runs
		if lvl.Fails > 0 {
			out.Levels = append(out.Levels, lvl)
			break
		}
		safe, found = v, true
	}
	out.SafeVmin, out.SafeFound = safe, found

	// Phase 2: sweep the unsafe region at SweepRuns per level until the
	// system reaches complete failure (pfail == 1) or the regulator
	// floor. The first unsafe level is re-measured at full resolution.
	// With no safe level the whole grid from nominal down is unsafe, so
	// the sweep starts at nominal itself.
	start := safe - StepMV
	if !found {
		start = c.Spec.NominalMV
	}
	for v := start; v >= c.Spec.MinSafeMV; v -= StepMV {
		lvl := runLevel(modelSafe, v, unsafeTrials, rng, false)
		out.TotalRuns += lvl.Runs
		// Replace the early-stopped probe of phase 1 if it covered
		// the same level.
		if len(out.Levels) > 0 && out.Levels[len(out.Levels)-1].Voltage == v {
			out.Levels[len(out.Levels)-1] = lvl
		} else {
			out.Levels = append(out.Levels, lvl)
		}
		if lvl.Fails == lvl.Runs {
			break
		}
	}
	return out
}

// PFailPoint is one (voltage, observed pfail) sample of a cumulative
// failure-probability curve — the named element type of
// Characterization.CumulativePFail, so callers can store and pass the
// Fig. 5 data around (the previous anonymous struct was unnameable
// outside this package).
type PFailPoint struct {
	Voltage chip.Millivolts
	PFail   float64
}

// CumulativePFail returns the (voltage, pfail) points of the unsafe sweep
// ordered from the safe point downwards, prepending the safe point itself
// with pfail 0 — the data behind each line of Fig. 5. When no safe level
// was found there is no clean point to prepend: the curve holds only the
// measured (all unsafe) levels.
func (cz Characterization) CumulativePFail() []PFailPoint {
	pts := make([]PFailPoint, 0, len(cz.Levels)+1)
	if cz.SafeFound {
		pts = append(pts, PFailPoint{cz.SafeVmin, 0})
	}
	for _, l := range cz.Levels {
		pts = append(pts, PFailPoint{l.Voltage, l.PFail()})
	}
	return pts
}

// GuardbandMV returns the exposed voltage guardband of the configuration:
// nominal voltage minus the discovered safe Vmin. When no safe level was
// found there is no exploitable guardband and the result is zero.
func (cz Characterization) GuardbandMV() chip.Millivolts {
	if !cz.SafeFound {
		return 0
	}
	return cz.Config.Spec.NominalMV - cz.SafeVmin
}
