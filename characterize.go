package avfs

import (
	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/droop"
	"avfs/internal/sim"
	"avfs/internal/vmin"
)

// FreqClass partitions the frequency range into the electrically distinct
// regions of the paper's clock tree (skipping vs division).
type FreqClass = clock.FreqClass

// The frequency classes.
const (
	// FullSpeed covers every setting above half of the maximum clock.
	FullSpeed = clock.FullSpeed
	// HalfSpeed is the true clock-division point and below.
	HalfSpeed = clock.HalfSpeed
	// DividedLow is X-Gene 2's deep-division region (≤0.9 GHz).
	DividedLow = clock.DividedLow
)

// FreqClassOf returns the frequency class of a setting on a chip.
func FreqClassOf(spec *ChipSpec, f MHz) FreqClass { return clock.ClassOf(spec, f) }

// ReportedFrequencies returns the paper's per-class representative
// frequencies for a chip (2.4/1.2/0.9 GHz or 3/1.5 GHz).
func ReportedFrequencies(spec *ChipSpec) []MHz { return clock.ReportedFrequencies(spec) }

// VminConfig describes one voltage-characterization configuration.
type VminConfig = vmin.Config

// Characterizer runs safe-Vmin searches and unsafe-region sweeps using the
// paper's methodology (1000-run safe criterion, 60-run sweeps).
type Characterizer = vmin.Characterizer

// Characterization is the outcome of one configuration's voltage sweep.
type Characterization = vmin.Characterization

// PFailPoint is one point of a cumulative fail-probability curve, as
// returned by Characterization.CumulativePFail (the Fig. 5 y-axis).
type PFailPoint = vmin.PFailPoint

// FaultTally counts faults by kind with fixed storage (indexed by
// FaultKind; no map allocation on the sweep hot path).
type FaultTally = vmin.FaultTally

// FaultKind classifies abnormal outcomes in the unsafe region.
type FaultKind = vmin.FaultKind

// Fault kinds observed below the safe Vmin.
const (
	FaultNone    = vmin.None
	FaultSDC     = vmin.SDC
	FaultTimeout = vmin.Timeout
	FaultHang    = vmin.Hang
	FaultCrash   = vmin.Crash
)

// SafeVminEnvelope returns the Table II class envelope: the safe Vmin of a
// (frequency class, utilized-PMD count) configuration, worst-case over
// workloads and cores. This is the value the daemon programs.
func SafeVminEnvelope(spec *ChipSpec, fc FreqClass, utilizedPMDs int) Millivolts {
	return vmin.ClassEnvelope(spec, fc, utilizedPMDs)
}

// DroopClassOf returns the droop magnitude class (Table II's left column)
// implied by a utilized-PMD count.
func DroopClassOf(spec *ChipSpec, utilizedPMDs int) droop.MagnitudeClass {
	return droop.ClassOfPMDs(spec, utilizedPMDs)
}

// ClusteredAllocation returns the canonical clustered core set for n
// threads (both cores of each PMD before the next PMD).
func ClusteredAllocation(m Model, n int) ([]CoreID, error) {
	return sim.ClusteredCores(chip.SpecFor(m), n)
}

// SpreadedAllocation returns the canonical spreaded core set for n threads
// (one core per PMD while PMDs remain).
func SpreadedAllocation(m Model, n int) ([]CoreID, error) {
	return sim.SpreadedCores(chip.SpecFor(m), n)
}
