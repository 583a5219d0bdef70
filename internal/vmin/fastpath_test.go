package vmin

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/workload"
)

// legacyRunLevel is the pre-fast-path sweep loop: one RunOnce per trial,
// no precomputed safe point. Kept verbatim (modulo the FaultTally retype)
// as the reference the optimized runLevel must reproduce bit-for-bit.
func legacyRunLevel(c *Config, v chip.Millivolts, n int, rng *rand.Rand, earlyStop bool) LevelResult {
	res := LevelResult{Voltage: v}
	for i := 0; i < n; i++ {
		res.Runs++
		out := RunOnce(c, v, rng)
		if out.Fault != None {
			res.Fails++
			res.ByKind.add(out.Fault)
			if earlyStop {
				return res
			}
		}
	}
	return res
}

// legacyCharacterize mirrors the pre-fast-path Characterize loop.
func legacyCharacterize(ch *Characterizer, c *Config) Characterization {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	safeTrials, unsafeTrials := ch.TrialCounts()
	rng := rand.New(rand.NewSource(seedFor(c, ch.Salt)))
	out := Characterization{Config: c}

	var safe chip.Millivolts
	found := false
	for v := c.Spec.NominalMV; v >= c.Spec.MinSafeMV; v -= StepMV {
		lvl := legacyRunLevel(c, v, safeTrials, rng, true)
		out.TotalRuns += lvl.Runs
		if lvl.Fails > 0 {
			out.Levels = append(out.Levels, lvl)
			break
		}
		safe, found = v, true
	}
	out.SafeVmin, out.SafeFound = safe, found

	start := safe - StepMV
	if !found {
		start = c.Spec.NominalMV
	}
	for v := start; v >= c.Spec.MinSafeMV; v -= StepMV {
		lvl := legacyRunLevel(c, v, unsafeTrials, rng, false)
		out.TotalRuns += lvl.Runs
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

// fastPathConfigs covers both chips, several classes and thread counts,
// a class-envelope (nil bench) cell, chip-offset overrides and a chip
// with no safe level at all.
func fastPathConfigs() []*Config {
	noSafe := chip.XGene2Spec()
	noSafe.NominalMV = 880 // FullSpeed 4-PMD envelope is 910 mV
	offs := make([]chip.Millivolts, chip.XGene3Spec().PMDs())
	for i := range offs {
		offs[i] = chip.Millivolts(-(i % 7))
	}
	return []*Config{
		{Spec: chip.XGene3Spec(), FreqClass: clock.FullSpeed, Cores: cores(32), Bench: workload.MustByName("CG")},
		{Spec: chip.XGene3Spec(), FreqClass: clock.HalfSpeed, Cores: cores(8), Bench: workload.MustByName("FT")},
		{Spec: chip.XGene3Spec(), FreqClass: clock.FullSpeed, Cores: cores(1), Bench: workload.MustByName("gcc")},
		{Spec: chip.XGene3Spec(), FreqClass: clock.FullSpeed, Cores: cores(16), PMDOffsets: offs},
		{Spec: chip.XGene2Spec(), FreqClass: clock.DividedLow, Cores: cores(8), Bench: workload.MustByName("EP")},
		{Spec: chip.XGene2Spec(), FreqClass: clock.HalfSpeed, Cores: cores(4), Bench: workload.MustByName("milc")},
		{Spec: chip.XGene2Spec(), FreqClass: clock.FullSpeed, Cores: cores(2)},
		{Spec: noSafe, FreqClass: clock.FullSpeed, Cores: cores(8)},
	}
}

func TestFastPathMatchesLegacy(t *testing.T) {
	// The optimized sweep (precomputed safe point, O(1) clean levels,
	// FaultTally) must be deep-equal to the per-run RunOnce reference for
	// identical seeds: RunOnce consumes no randomness at pfail == 0, so
	// skipping clean levels leaves the RNG stream untouched.
	for _, ch := range []*Characterizer{
		{SafeTrials: 200, UnsafeTrials: 60},
		{Salt: 42, SafeTrials: 500, UnsafeTrials: 30},
		{SafeTrials: 50, UnsafeTrials: 50},
	} {
		for _, cfg := range fastPathConfigs() {
			got := ch.Characterize(cfg)
			want := legacyCharacterize(ch, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("salt=%d trials=%d/%d %s: fast path diverged:\n got %+v\nwant %+v",
					ch.Salt, ch.SafeTrials, ch.UnsafeTrials, cfg.Spec.Name, got, want)
			}
		}
	}
}

// TestReseededGeneratorMatchesFresh proves the pooled generator: one
// generator re-seeded for each sweep of an interleaved sequence of
// configurations, and Characterize through the pool, both reproduce the
// sweep on a fresh rand.New(rand.NewSource(seed)).
func TestReseededGeneratorMatchesFresh(t *testing.T) {
	ch := &Characterizer{SafeTrials: 200, UnsafeTrials: 60}
	cfgs := fastPathConfigs()
	var order []*Config
	for i := range cfgs {
		order = append(order, cfgs[i], cfgs[len(cfgs)-1-i])
	}
	reused := rand.New(rand.NewSource(1))
	for i, cfg := range order {
		want := legacyCharacterize(ch, cfg)
		reused.Seed(seedFor(cfg, ch.Salt))
		if got := ch.sweep(cfg, reused); !reflect.DeepEqual(got, want) {
			t.Errorf("sweep %d (%s): re-seeded generator diverged:\n got %+v\nwant %+v", i, cfg.Spec.Name, got, want)
		}
		if got := ch.Characterize(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("sweep %d (%s): pooled generator diverged:\n got %+v\nwant %+v", i, cfg.Spec.Name, got, want)
		}
	}
}

// TestSeedForMatchesHashFNV pins the inline FNV-1a of seedFor to
// hash/fnv's over the same bytes, so every characterization seed is
// unchanged.
func TestSeedForMatchesHashFNV(t *testing.T) {
	for _, cfg := range fastPathConfigs() {
		cfg.Cores = append([]chip.CoreID{cfg.Cores[len(cfg.Cores)-1]}, cfg.Cores[:len(cfg.Cores)-1]...)
		h := fnv.New64a()
		h.Write([]byte(cfg.Spec.Name))
		h.Write([]byte{byte(cfg.FreqClass)})
		sorted := slices.Clone(cfg.Cores)
		slices.Sort(sorted)
		for _, id := range sorted {
			h.Write([]byte{byte(id), byte(id >> 8)})
		}
		if cfg.Bench != nil {
			h.Write([]byte(cfg.Bench.Name))
		}
		for _, salt := range []int64{0, 42} {
			if got, want := seedFor(cfg, salt), int64(h.Sum64())^salt; got != want {
				t.Errorf("%s %d cores salt %d: seedFor %d, hash/fnv %d", cfg.Spec.Name, len(cfg.Cores), salt, got, want)
			}
		}
	}
}

// BenchmarkCharacterize tracks the cost (and allocations) of one full
// sweep at paper-default trial counts. The clean-level fast path plus the
// FaultTally retype keep the safe-region walk allocation-free, and the
// generator comes from a pool: the only remaining allocations are the
// Levels slice and Validate's scratch — independent of SafeRuns.
func BenchmarkCharacterize(b *testing.B) {
	cfg := &Config{
		Spec:      chip.XGene3Spec(),
		FreqClass: clock.FullSpeed,
		Cores:     cores(32),
		Bench:     workload.MustByName("CG"),
	}
	var ch Characterizer // paper defaults: 1000 safe runs, 60 sweep runs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cz := ch.Characterize(cfg)
		if !cz.SafeFound {
			b.Fatal("expected a safe level")
		}
	}
}
