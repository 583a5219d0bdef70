package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/sim"
	"avfs/internal/workload"
)

// oraclePickCores is the placer's original core picker, kept as the
// reference the allocation-free pickCores must reproduce: a stable sort
// of the free list (cores with an idle sibling first, then by ID) and a
// map of taken cores.
func oraclePickCores(m *sim.Machine, n int) []chip.CoreID {
	free := m.FreeCores()
	if len(free) < n {
		return nil
	}
	idlePMD := func(c chip.CoreID) bool {
		return m.ThreadOn(c^1) == nil
	}
	sort.SliceStable(free, func(i, j int) bool {
		ii, jj := idlePMD(free[i]), idlePMD(free[j])
		if ii != jj {
			return ii
		}
		return free[i] < free[j]
	})
	var out []chip.CoreID
	taken := map[chip.CoreID]bool{}
	for len(out) < n {
		best := chip.CoreID(-1)
		bestIdle := false
		for _, c := range free {
			if taken[c] {
				continue
			}
			sibIdle := m.ThreadOn(c^1) == nil && !taken[c^1]
			if best < 0 || (sibIdle && !bestIdle) {
				best, bestIdle = c, sibIdle
				if sibIdle {
					break
				}
			}
		}
		if best < 0 {
			return nil
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}

// occupied builds a machine of spec whose cores in the occupancy mask
// each run a single-threaded program.
func occupied(t *testing.T, spec *chip.Spec, mask uint64) *sim.Machine {
	t.Helper()
	m := sim.New(spec)
	for c := range spec.Cores {
		if mask&(1<<c) == 0 {
			continue
		}
		p := m.MustSubmit(workload.MustByName("namd"), 1)
		if err := m.Place(p, []chip.CoreID{chip.CoreID(c)}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// checkPicks compares pickCores with the oracle for every request size
// from 1 to one more than the free cores. One placer serves every
// machine, so its scratch carries over between calls and chips.
func checkPicks(t *testing.T, pl *DefaultPlacer, m *sim.Machine, mask uint64) {
	t.Helper()
	pl.M = m
	for n := 1; n <= m.FreeCoreCount()+1; n++ {
		got, want := pl.pickCores(n), oraclePickCores(m, n)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s occupancy %#x, %d cores: picked %v, oracle %v", m.Spec.Name, mask, n, got, want)
		}
	}
}

// TestPickCoresMatchesOracle covers every occupancy of X-Gene 2 and
// seeded random occupancies of X-Gene 3, of every density.
func TestPickCoresMatchesOracle(t *testing.T) {
	pl := &DefaultPlacer{}
	x2 := chip.XGene2Spec()
	for mask := uint64(0); mask < 1<<x2.Cores; mask++ {
		checkPicks(t, pl, occupied(t, x2, mask), mask)
	}
	x3 := chip.XGene3Spec()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		density := rng.Float64()
		var mask uint64
		for c := range x3.Cores {
			if rng.Float64() < density {
				mask |= 1 << c
			}
		}
		checkPicks(t, pl, occupied(t, x3, mask), mask)
	}
}
