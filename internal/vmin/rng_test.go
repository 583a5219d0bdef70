package vmin

import (
	"math"
	"math/rand"
	"testing"
)

// TestSweepSourceMatchesMathRand draws 1,300 numbers from sweepSource and
// from rand.NewSource for each seed, past the 607-word register's wrap
// twice, including seeds that reduce to zero or to the chain's edges.
func TestSweepSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, int32max, -int32max, 89482311, 1 << 62, -1 << 62,
		math.MaxInt64, math.MinInt64, 2 * int32max}
	var s sweepSource
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for i := 0; i < 1300; i++ {
			if w, g := want.Uint64(), s.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
		// Int63 through rand.Rand, re-seeding the same source.
		wr, gr := rand.New(rand.NewSource(seed)), rand.New(&s)
		gr.Seed(seed)
		for i := 0; i < 1300; i++ {
			if w, g := wr.Float64(), gr.Float64(); w != g {
				t.Fatalf("seed %d Float64 %d: got %v, want %v", seed, i, g, w)
			}
		}
	}
}

// TestSeedPowIsTheChain checks the jump-ahead table against the chain it
// replaces, stepped by math/rand's own Schrage recurrence.
func TestSeedPowIsTheChain(t *testing.T) {
	x := int32(1)
	for n := 1; n <= seedChain; n++ {
		const q, r = 44488, 3399
		x = parkMiller*(x%q) - r*(x/q)
		if x < 0 {
			x += int32max
		}
		if uint64(x) != seedPow[n] {
			t.Fatalf("48271^%d mod (2^31-1): table %d, chain %d", n, seedPow[n], x)
		}
	}
}

// BenchmarkSweepSeed measures re-seeding a sweep's generator, which every
// characterization does once.
func BenchmarkSweepSeed(b *testing.B) {
	b.Run("sweepSource", func(b *testing.B) {
		var s sweepSource
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
