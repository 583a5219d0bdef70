// Package sim implements a discrete-time simulator of one X-Gene server:
// threads placed on cores, per-PMD frequencies, a chip-wide supply voltage,
// shared-L2 and shared-memory contention, per-tick progress and energy
// integration, PMU counters, and voltage-emergency detection.
//
// It is the stand-in for the paper's physical testbed: every experiment in
// internal/experiments drives a Machine exactly the way the paper drives
// its servers — submit programs, pin threads, program V/F through the
// management interface, and read counters and the power meter.
package sim

import (
	"fmt"
	"strings"

	"avfs/internal/chip"
)

// Placement names the two core-allocation strategies of Fig. 2.
type Placement int

const (
	// Clustered packs threads onto consecutive cores so both cores of
	// each PMD are occupied before the next PMD is touched (fewest
	// utilized PMDs; threads share L2s).
	Clustered Placement = iota
	// Spreaded gives each thread its own PMD for as long as PMDs remain
	// (private L2s; most utilized PMDs).
	Spreaded
)

// String names the placement like the paper's figures.
func (p Placement) String() string {
	if p == Clustered {
		return "clustered"
	}
	return "spreaded"
}

// ParsePlacement resolves a wire name, case-insensitively: a String, the
// aliases cluster and spread, or "" for Clustered. An unknown name wraps
// ErrInvalidPlacement.
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "clustered", "cluster":
		return Clustered, nil
	case "spreaded", "spread":
		return Spreaded, nil
	}
	return Clustered, fmt.Errorf("%w: %q (want clustered or spreaded)", ErrInvalidPlacement, s)
}

// ClusteredCores returns the canonical clustered allocation of n threads on
// a chip: cores 0,1,2,3,… — both cores of each PMD before the next PMD.
func ClusteredCores(spec *chip.Spec, n int) ([]chip.CoreID, error) {
	if n < 1 || n > spec.Cores {
		return nil, fmt.Errorf("sim: cannot allocate %d threads on %d cores", n, spec.Cores)
	}
	out := make([]chip.CoreID, n)
	for i := range out {
		out[i] = chip.CoreID(i)
	}
	return out, nil
}

// SpreadedCores returns the canonical spreaded allocation of n threads:
// the even core of each PMD first (one thread per PMD); once every PMD is
// utilized, the odd cores are filled in.
func SpreadedCores(spec *chip.Spec, n int) ([]chip.CoreID, error) {
	if n < 1 || n > spec.Cores {
		return nil, fmt.Errorf("sim: cannot allocate %d threads on %d cores", n, spec.Cores)
	}
	out := make([]chip.CoreID, 0, n)
	for i := 0; i < spec.PMDs() && len(out) < n; i++ {
		out = append(out, chip.CoreID(2*i))
	}
	for i := 0; i < spec.PMDs() && len(out) < n; i++ {
		out = append(out, chip.CoreID(2*i+1))
	}
	return out, nil
}

// CoresFor returns the canonical allocation of n threads under placement p.
func CoresFor(spec *chip.Spec, p Placement, n int) ([]chip.CoreID, error) {
	if p == Clustered {
		return ClusteredCores(spec, n)
	}
	return SpreadedCores(spec, n)
}

// UtilizedPMDs returns the distinct PMDs covered by a core set.
func UtilizedPMDs(spec *chip.Spec, cores []chip.CoreID) []chip.PMDID {
	seen := make(map[chip.PMDID]bool, spec.PMDs())
	var out []chip.PMDID
	for _, c := range cores {
		p := spec.PMDOf(c)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
