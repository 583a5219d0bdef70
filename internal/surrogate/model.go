// Package surrogate is the fleet's microsecond "instant estimate" tier:
// closed-form analytic power/perf/Vmin models fitted once against the
// simulator, then queried in closed form — EstimateEnergy and
// SearchEnergyOptimal answer config-search questions in microseconds
// with zero allocations, where the simulator pays milliseconds per
// branch. The simulator stays the ground truth: fitted
// models carry per-cell correction ratios regressed from small
// calibration simulations, the accuracy gates in surrogate_test.go bound
// the residual error per workload class across all four Table IV
// policies, and the serving path checks the surrogate against every
// simulated what-if it runs (the avfs_surrogate_refine_rel_err gauge).
//
// The model also carries a technology-node axis (tech.go): ITRS/CONS
// roadmap ratios project the two real chips (28 nm X-Gene 2, 16 nm
// X-Gene 3) to any node down to 7 nm, so campaigns can sweep
// native/scaled variants without new simulator tables.
package surrogate

import (
	"fmt"

	"avfs/internal/chip"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

// Version is the fitted-model artifact version. It composes the Vmin
// model version: the surrogate's guardband curve is derived from the
// Table II envelopes, so a Vmin model revision skews every fitted
// artifact into a refit.
const Version = "surrogate-v1+" + vmin.ModelVersion

// Class is the surrogate's workload classification — the same
// L3C-access-rate split (3K per 1M cycles) the daemon uses.
type Class int

const (
	// ClassCPU is below the classification threshold.
	ClassCPU Class = iota
	// ClassMemory is at or above it.
	ClassMemory
	numClasses
)

// String names the class ("cpu", "memory").
func (c Class) String() string {
	if c == ClassMemory {
		return "memory"
	}
	return "cpu"
}

// ClassOf classifies a benchmark by its L3C access rate.
func ClassOf(b *workload.Benchmark) Class {
	if b.MemoryIntensive() {
		return ClassMemory
	}
	return ClassCPU
}

const (
	numFreqClasses = 3 // clock.FullSpeed, HalfSpeed, DividedLow
	numPlacements  = 2 // sim.Clustered, sim.Spreaded
	numConfigs     = 4 // the Table IV policies
	numPolicyMixes = 3 // experiments.MixCPU, MixMemory, MixBalanced
)

// SoloCell is one fitted correction for the closed-form solo model,
// keyed by (frequency class, core-allocation class, workload class):
// the regressed ratio of simulated over analytic runtime and power.
// Identity ratios (1.0) mean the analytic form needed no correction.
type SoloCell struct {
	TimeRatio  float64 `json:"time_ratio"`
	PowerRatio float64 `json:"power_ratio"`
	Samples    int     `json:"samples"`
}

// PolicyCell is one fitted workload-level correction, keyed by (Table IV
// policy, workload mix): ratios of simulated over analytic energy and
// makespan for a whole arrival schedule replayed under the policy.
type PolicyCell struct {
	EnergyRatio float64 `json:"energy_ratio"`
	TimeRatio   float64 `json:"time_ratio"`
	PowerRatio  float64 `json:"power_ratio"`
	Samples     int     `json:"samples"`
}

// Model is the fitted surrogate for one chip: the correction cells the
// closed-form engine multiplies its analytic answers by. It is immutable
// derived data, content-addressed and persisted by Store in the same
// internal/castore store as the characterization datasets.
type Model struct {
	Version string `json:"version"`
	Chip    string `json:"chip"`
	// ChipModel is the chip.Model ordinal, for restore-time validation.
	ChipModel int `json:"chip_model"`
	// Salt is the calibration seed the cells were regressed under.
	Salt int64 `json:"salt"`

	Solo   [numFreqClasses][numPlacements][numClasses]SoloCell `json:"solo"`
	Policy [numConfigs][numPolicyMixes]PolicyCell              `json:"policy"`
}

// soloCell returns the correction for a (freq class, placement, class)
// triple, falling back to the identity when the cell was never fitted
// (e.g. DividedLow on X-Gene 3).
func (m *Model) soloCell(fc, placement, class int) SoloCell {
	if fc < 0 || fc >= numFreqClasses || placement < 0 || placement >= numPlacements ||
		class < 0 || class >= int(numClasses) {
		return SoloCell{TimeRatio: 1, PowerRatio: 1}
	}
	c := m.Solo[fc][placement][class]
	if c.Samples == 0 {
		return SoloCell{TimeRatio: 1, PowerRatio: 1}
	}
	return c
}

// policyCell returns the correction for a (policy, mix) pair, identity
// when unfitted.
func (m *Model) policyCell(cfg, mix int) PolicyCell {
	if cfg < 0 || cfg >= numConfigs || mix < 0 || mix >= numPolicyMixes {
		return PolicyCell{EnergyRatio: 1, TimeRatio: 1, PowerRatio: 1}
	}
	c := m.Policy[cfg][mix]
	if c.Samples == 0 {
		return PolicyCell{EnergyRatio: 1, TimeRatio: 1, PowerRatio: 1}
	}
	return c
}

// validate checks a loaded artifact belongs to this code and chip.
func (m *Model) validate(spec *chip.Spec) error {
	if m.Version != Version {
		return fmt.Errorf("surrogate: model version %q, want %q", m.Version, Version)
	}
	if m.ChipModel != int(spec.Model) {
		return fmt.Errorf("surrogate: model fitted for chip %d, want %d", m.ChipModel, int(spec.Model))
	}
	return nil
}
