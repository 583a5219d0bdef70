package experiments

import (
	"fmt"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/wlgen"
	"avfs/internal/workload"
)

// classOracle counts, tick by tick, the frequency class every PMD ran
// at. It is an OnTick hook registered after the control stack, so at
// each call it sees the V/F the next tick runs at.
type classOracle struct {
	m     *sim.Machine
	next  []clock.FreqClass
	ticks [][]uint64 // [pmd][class]
}

// attachOracle starts counting on m from the counts in base (nil for a
// fresh machine).
func attachOracle(m *sim.Machine, base [][]uint64) *classOracle {
	o := &classOracle{m: m, next: make([]clock.FreqClass, m.Spec.PMDs())}
	for p := range o.next {
		row := make([]uint64, int(clock.DividedLow)+1)
		if base != nil {
			copy(row, base[p])
		}
		o.ticks = append(o.ticks, row)
	}
	o.read()
	m.OnTick(func(*sim.Machine) {
		for p, fc := range o.next {
			o.ticks[p][fc]++
		}
		o.read()
	})
	return o
}

func (o *classOracle) read() {
	for p := range o.next {
		o.next[p] = clock.ClassOf(o.m.Spec, o.m.Chip.PMDFreq(chip.PMDID(p)))
	}
}

// residencyOf is m's residency table, checked to sum to Ticks per PMD.
func residencyOf(t *testing.T, m *sim.Machine, label string) [][]uint64 {
	t.Helper()
	var res [][]uint64
	for p := 0; p < m.Spec.PMDs(); p++ {
		row := make([]uint64, int(clock.DividedLow)+1)
		var sum uint64
		for fc := range row {
			row[fc] = m.Residency(chip.PMDID(p), clock.FreqClass(fc))
			sum += row[fc]
		}
		if sum != m.Ticks() {
			t.Fatalf("%s: PMD %d residency sums to %d ticks, machine committed %d", label, p, sum, m.Ticks())
		}
		res = append(res, row)
	}
	return res
}

// arrivalDriver replays a seeded schedule: each arrival is submitted at
// the first tick at or after its time, however the run is paused.
type arrivalDriver struct {
	wl   *wlgen.Workload
	next int
}

func (a *arrivalDriver) drive(t *testing.T, m *sim.Machine, until float64) {
	t.Helper()
	for {
		for a.next < len(a.wl.Arrivals) && a.wl.Arrivals[a.next].At <= m.Now()+1e-12 {
			ar := a.wl.Arrivals[a.next]
			if _, err := m.Submit(ar.Bench, ar.Threads); err != nil {
				t.Fatal(err)
			}
			a.next++
		}
		if m.Now() >= until-1e-12 {
			return
		}
		stop := until
		if a.next < len(a.wl.Arrivals) && a.wl.Arrivals[a.next].At < stop {
			stop = a.wl.Arrivals[a.next].At
		}
		m.RunFor(stop - m.Now())
	}
}

// TestResidencyMatchesPerTickOracle: the machine's residency equals, tick
// for tick, an oracle that classifies every PMD after every tick, on
// seeded Baseline and Optimal runs on both chips, stepped per tick or in
// batches, and across restore, fork and migrate (the snapshot's bytes
// decoded as a peer node does).
func TestResidencyMatchesPerTickOracle(t *testing.T) {
	const capAt, end = 150.0, 300.0
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		wl := wlgen.Generate(spec, wlgen.Config{Duration: end}, 7)
		for _, cfg := range []SystemConfig{Baseline, Optimal} {
			label := spec.Name + "/" + cfg.String()
			start := func() (*Stack, *arrivalDriver) {
				m := sim.New(spec)
				s, err := NewStack(m, cfg, 0, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return s, &arrivalDriver{wl: wl}
			}
			check := func(m *sim.Machine, o *classOracle, want [][]uint64, what string) {
				t.Helper()
				got := residencyOf(t, m, label+" "+what)
				if o != nil && fmt.Sprint(got) != fmt.Sprint(o.ticks) {
					t.Fatalf("%s %s: residency %v, per-tick oracle %v", label, what, got, o.ticks)
				}
				if want != nil && fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %s: residency %v, uninterrupted run %v", label, what, got, want)
				}
			}

			// Uninterrupted, per tick under the oracle and batched.
			ref, a := start()
			o := attachOracle(ref.M, nil)
			a.drive(t, ref.M, end)
			check(ref.M, o, nil, "per tick")
			want := o.ticks
			batched, a := start()
			a.drive(t, batched.M, end)
			check(batched.M, nil, want, "batched")
			if batched.M.CoalescedTicks() == 0 {
				t.Fatalf("%s: precondition: the batched run coalesced nothing", label)
			}

			// Capture a per-tick run under the oracle mid-way.
			orig, a := start()
			o = attachOracle(orig.M, nil)
			a.drive(t, orig.M, capAt)
			st := &snapshot.SessionState{Model: spec.Model.Name()}
			for orig.Capture(st) != nil {
				a.drive(t, orig.M, orig.M.Now()+orig.M.Tick) // a transition is in flight
			}
			st.Machine = orig.M.CaptureState()
			check(orig.M, o, nil, "at capture")
			_, payload, err := snapshot.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			restore := func(st *snapshot.SessionState) *Stack {
				s, err := RestoreStack(st, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			resume := *a

			// Restored per tick under an oracle resumed from the
			// original's counts; a fork of the same state batched; a
			// second fork with extra work under its own oracle; and a
			// migration from the encoded bytes.
			restored := restore(st)
			ro := attachOracle(restored.M, o.ticks)
			ra := resume
			ra.drive(t, restored.M, end)
			check(restored.M, ro, want, "restored")

			fork := restore(st)
			fa := resume
			fa.drive(t, fork.M, end)
			check(fork.M, nil, want, "fork")

			variant := restore(st)
			vo := attachOracle(variant.M, o.ticks)
			variant.M.MustSubmit(workload.MustByName("CG"), 4)
			va := resume
			va.drive(t, variant.M, end)
			check(variant.M, vo, nil, "variant fork")

			decoded, err := snapshot.Decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			migrated := restore(decoded)
			ma := resume
			ma.drive(t, migrated.M, end)
			check(migrated.M, nil, want, "migrated")
		}
	}
}
