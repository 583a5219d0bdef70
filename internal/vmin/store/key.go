// Package store memoizes Vmin characterization results behind
// content-addressed keys — the Table II dataset is immutable derived data,
// so any two requests with the same configuration identity, salt, trial
// counts and model version are interchangeable.
//
// The store is a typed wrapper over internal/castore, which supplies the
// in-process tier (singleflight: duplicates wait on the one in-flight
// sweep instead of recomputing), the optional on-disk tier (one envelope
// per key, so characterization cost is paid once across campaigns, CLI
// invocations and service restarts) and the rule that any unreadable,
// corrupt or skewed file is a miss, never an error. This package owns the
// key derivation and the dataset copy-out.
package store

import (
	"fmt"
	"sort"
	"strings"

	"avfs/internal/chip"
	"avfs/internal/vmin"
)

// Key is the canonical content address of one characterization cell. Two
// cells share a key exactly when Characterize is guaranteed to produce
// deep-equal results for them.
type Key struct {
	id string
}

// KeyFor derives the key from the full configuration identity: the model
// version, the chip spec (name, model, nominal and floor voltages — tests
// and binning studies mutate these on copies of the stock specs), the
// frequency class, the core *set* (sorted, matching seedFor), the
// benchmark, any per-chip PMD offset overrides, the seed salt and the
// effective trial counts. It panics on negative trial counts, mirroring
// Characterize.
func KeyFor(ch *vmin.Characterizer, c *vmin.Config) Key {
	safe, unsafe := ch.TrialCounts()
	var b strings.Builder
	fmt.Fprintf(&b, "%s|chip=%s/%d|nom=%d|floor=%d|fc=%d|cores=",
		vmin.ModelVersion, c.Spec.Name, c.Spec.Model,
		c.Spec.NominalMV, c.Spec.MinSafeMV, c.FreqClass)
	cores := append([]chip.CoreID(nil), c.Cores...)
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	for i, id := range cores {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteString("|bench=")
	if c.Bench != nil {
		// The workload catalog is part of the identity: a benchmark's Vmin
		// offset feeds SafeVmin directly.
		fmt.Fprintf(&b, "%s/%d", c.Bench.Name, c.Bench.VminOffsetMV)
	}
	if c.PMDOffsets != nil {
		b.WriteString("|pmdoff=")
		for i, o := range c.PMDOffsets {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", o)
		}
	}
	fmt.Fprintf(&b, "|salt=%d|safe=%d|unsafe=%d", ch.Salt, safe, unsafe)
	return Key{id: b.String()}
}

// String returns the canonical key string (stored verbatim in disk
// entries so a loaded file can prove it belongs to its name).
func (k Key) String() string { return k.id }
