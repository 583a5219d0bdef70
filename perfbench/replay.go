package main

import (
	"fmt"
	"math"

	"avfs/api"
)

// energyTolerance is the repository's batch-versus-solo contract: integer
// state matches exactly, energies agree within 1e-9 relative.
const energyTolerance = 1e-9

// relClose reports a and b equal within energyTolerance relative.
func relClose(a, b float64) bool {
	return a == b || math.Abs(a-b) <= energyTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// sameSession compares a replayed end state with the measured one.
func sameSession(got, want api.Session) error {
	if got.Model != want.Model || got.Policy != want.Policy || got.Ticks != want.Ticks ||
		got.Running != want.Running || got.Pending != want.Pending || got.Done != want.Done ||
		got.Emergencies != want.Emergencies || got.VoltageMV != want.VoltageMV ||
		got.RequiredVminMV != want.RequiredVminMV || got.UtilizedPMDs != want.UtilizedPMDs {
		return fmt.Errorf("end state %+v, replay %+v", want, got)
	}
	if !relClose(got.EnergyJ, want.EnergyJ) || !relClose(got.PeakPowerW, want.PeakPowerW) {
		return fmt.Errorf("energy %.17g J (peak %.17g W), replay %.17g J (peak %.17g W)",
			want.EnergyJ, want.PeakPowerW, got.EnergyJ, got.PeakPowerW)
	}
	return nil
}

// sameRun compares a replayed run result with the measured one.
func sameRun(got, want api.RunResult) error {
	if got.Ticks != want.Ticks || got.Emergencies != want.Emergencies || !relClose(got.EnergyJ, want.EnergyJ) {
		return fmt.Errorf("run %+v, replay %+v", want, got)
	}
	return nil
}

// sameWhatIf compares a replayed what-if report with the measured one.
func sameWhatIf(got, want api.WhatIfReport) error {
	if got.BaseTicks != want.BaseTicks || len(got.Branches) != len(want.Branches) {
		return fmt.Errorf("what-if at tick %d with %d branches, replay at %d with %d",
			want.BaseTicks, len(want.Branches), got.BaseTicks, len(got.Branches))
	}
	for i, w := range want.Branches {
		g := got.Branches[i]
		if g.Name != w.Name || g.Ticks != w.Ticks || g.Completed != w.Completed || g.Running != w.Running ||
			g.Pending != w.Pending || g.Emergencies != w.Emergencies || g.VoltageMV != w.VoltageMV ||
			!relClose(g.EnergyJ, w.EnergyJ) {
			return fmt.Errorf("branch %s %+v, replay %+v", w.Name, w, g)
		}
	}
	return nil
}

// sameAdvance compares a replayed advance-workload session with the
// measured one: its last read state, every what-if and every fork.
func sameAdvance(got, want *advSession) error {
	if err := sameSession(got.last, want.last); err != nil {
		return err
	}
	if len(got.whatifs) != len(want.whatifs) || len(got.forks) != len(want.forks) {
		return fmt.Errorf("%d what-ifs and %d forks, replay %d and %d",
			len(want.whatifs), len(want.forks), len(got.whatifs), len(got.forks))
	}
	for i := range want.whatifs {
		if err := sameWhatIf(got.whatifs[i], want.whatifs[i]); err != nil {
			return fmt.Errorf("what-if %d: %w", i, err)
		}
	}
	for i := range want.forks {
		if err := sameRun(got.forks[i], want.forks[i]); err != nil {
			return fmt.Errorf("fork %d: %w", i, err)
		}
	}
	return nil
}
