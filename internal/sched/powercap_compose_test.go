package sched

import (
	"testing"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/sim"
	"avfs/internal/workload"
)

// TestPowerCapComposesWithDaemon pins the voltage guard on the boost
// path: a cap governor attached next to the undervolting daemon
// (AttachGovernor, the fleet's per-session power-cap wiring) must never
// raise frequency past what the daemon's settled voltage supports. The
// regression this guards: a generous, non-binding cap used to boost
// daemon-reduced PMDs back up every control period, pushing required
// Vmin above the programmed voltage — hundreds of emergencies in a
// 10-second run.
func TestPowerCapComposesWithDaemon(t *testing.T) {
	run := func(capW float64) *sim.Machine {
		m := sim.New(chip.XGene3Spec())
		d := daemon.New(m, daemon.DefaultConfig())
		d.Attach()
		if capW > 0 {
			NewPowerCap(m, capW).AttachGovernor()
		}
		m.MustSubmit(workload.MustByName("CG"), 8)
		m.MustSubmit(workload.MustByName("namd"), 1)
		m.RunFor(10)
		return m
	}

	uncapped := run(0)
	if n := len(uncapped.Emergencies()); n != 0 {
		t.Fatalf("daemon alone saw %d emergencies; broken baseline", n)
	}

	// A non-binding cap must be behavior-neutral: zero emergencies and
	// the same trajectory as no cap at all, energy bit for bit: the
	// governor's 10ms hook partitions tick batches differently, and the
	// fixed-point meter sums every partition to the same integers.
	generous := run(500)
	if n := len(generous.Emergencies()); n != 0 {
		t.Errorf("non-binding 500W cap caused %d voltage emergencies", n)
	}
	if g, u := generous.Meter.State(), uncapped.Meter.State(); g != u {
		t.Errorf("non-binding cap changed energy: %+v vs %+v uncapped", g, u)
	}

	// A binding cap throttles but still never undervolts the machine
	// into an emergency.
	tight := run(6)
	if n := len(tight.Emergencies()); n != 0 {
		t.Errorf("binding 6W cap caused %d voltage emergencies", n)
	}
}
