package sim

import (
	"math"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/wlgen"
)

// missScenario drives m through a generated hour: arrivals placed first
// fit, the whole chip's V/F flipped every 45 s (every third flip below
// the requirement, so emergencies fire), and a single-threaded process
// migrated every 100 s under a migration penalty. Every action sits
// behind a bounded hook, so batched and per-tick stepping see it on the
// same tick.
func missScenario(m *Machine, wl *wlgen.Workload) {
	m.SetMigrationPenalty(0.05)
	next := 0
	m.OnTickBounded(func(m *Machine, _ int) {
		for next < len(wl.Arrivals) && wl.Arrivals[next].At <= m.Now()+1e-12 {
			a := wl.Arrivals[next]
			m.MustSubmit(a.Bench, a.Threads)
			next++
		}
	}, func() float64 {
		if next < len(wl.Arrivals) {
			return wl.Arrivals[next].At
		}
		return math.Inf(1)
	})
	fits := func() bool { h := m.PendingHead(); return h != nil && len(h.Threads) <= m.FreeCoreCount() }
	m.OnTickBounded(func(m *Machine, _ int) {
		for fits() {
			h := m.PendingHead()
			if err := m.Place(h, m.FreeCores()[:len(h.Threads)]); err != nil {
				panic(err)
			}
		}
	}, func() float64 {
		if fits() {
			return 0
		}
		return math.Inf(1)
	})
	flip, flips := 45.0, 0
	m.OnTickBounded(func(m *Machine, _ int) {
		if m.Now()+1e-12 < flip {
			return
		}
		flips++
		switch flips % 3 {
		case 0:
			m.Chip.SetAllFreq(m.Spec.MaxFreq)
			m.Chip.SetVoltage(m.Spec.MinSafeMV)
		case 1:
			m.Chip.SetAllFreq(m.Spec.HalfFreq())
			m.Chip.SetVoltage(m.Spec.NominalMV - 40)
		default:
			m.Chip.SetAllFreq(m.Spec.MaxFreq)
			m.Chip.SetVoltage(m.Spec.NominalMV)
		}
		flip += 45
	}, func() float64 { return flip })
	move := 100.0
	m.OnTickBounded(func(m *Machine, _ int) {
		if m.Now()+1e-12 < move {
			return
		}
		move += 100
		free := m.FreeCores()
		for _, p := range m.RunningView() {
			if len(p.Threads) == 1 && len(free) > 0 {
				if err := m.Reassign(map[*Process][]chip.CoreID{p: {free[0]}}); err != nil {
					panic(err)
				}
				return
			}
		}
	}, func() float64 { return move })
}

// TestCoalesceMissesAttributeEveryFullTick steps an hour-long replay one
// tick at a time and checks that every tick the steady cache cannot
// replay counts under exactly one reason and every replayed tick under
// none; a batched replay of the same hour counts the same misses.
func TestCoalesceMissesAttributeEveryFullTick(t *testing.T) {
	spec := chip.XGene3Spec()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 3600}, 11)
	sum := func(c [NumMissReasons]uint64) (n uint64) {
		for _, v := range c {
			n += v
		}
		return n
	}

	m := New(spec)
	missScenario(m, wl)
	var full uint64
	// The generations the last full tick started under, and whether it
	// recorded an emergency: what a generation-driven reason must match.
	var chipGen, placeGen uint64
	emergency := false
	for m.Now() < 3600-1e-9 {
		ready := m.steadyReady()
		cg, pg, em := m.Chip.Generation(), m.PlacementGeneration(), m.EmergencyCount()
		before := m.CoalesceMisses()
		m.Step()
		after := m.CoalesceMisses()
		if d := sum(after) - sum(before); ready && d != 0 || !ready && d != 1 {
			t.Fatalf("tick %d (steady cache ready %v) counted %d misses", m.Ticks(), ready, d)
		}
		if ready {
			continue
		}
		full++
		var why MissReason
		for after[why] == before[why] {
			why++
		}
		want := why // the tick-local reasons are not predicted here
		switch {
		case full == 1:
			want = MissPlacement
		case cg != chipGen:
			want = MissVF
		case pg != placeGen:
			want = MissPlacement
		case why == MissVF && !emergency, why == MissPlacement:
			t.Fatalf("tick %d counted %v with no generation moved and no emergency", m.Ticks(), why)
		}
		if why != want {
			t.Fatalf("tick %d counted %v, want %v", m.Ticks(), why, want)
		}
		chipGen, placeGen, emergency = cg, pg, m.EmergencyCount() > em
	}
	got := m.CoalesceMisses()
	if sum(got) != full {
		t.Fatalf("misses sum to %d over %d full ticks", sum(got), full)
	}
	for r := MissReason(0); r < NumMissReasons; r++ {
		if got[r] == 0 {
			t.Errorf("the hour never missed for reason %v: %v", r, got)
		}
	}
	if m.EmergencyCount() == 0 {
		t.Error("the scenario recorded no emergency")
	}

	b := New(spec)
	missScenario(b, wl)
	b.RunFor(3600)
	if b.Ticks() != m.Ticks() || b.CoalesceMisses() != got {
		t.Errorf("batched replay: %d ticks, misses %v; per tick: %d ticks, misses %v",
			b.Ticks(), b.CoalesceMisses(), m.Ticks(), got)
	}
	if b.CoalescedTicks() == 0 {
		t.Error("the batched replay coalesced nothing")
	}
	t.Logf("%d ticks, %d full: %v", m.Ticks(), full, got)
}
