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
	"slices"
	"strconv"

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
	cores := c.Cores
	if !slices.IsSorted(cores) {
		cores = slices.Clone(cores)
		slices.Sort(cores)
	}
	b := make([]byte, 0, 160+4*len(cores)+6*len(c.PMDOffsets))
	b = append(b, vmin.ModelVersion...)
	b = append(b, "|chip="...)
	b = append(b, c.Spec.Name...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.Spec.Model), 10)
	b = append(b, "|nom="...)
	b = strconv.AppendInt(b, int64(c.Spec.NominalMV), 10)
	b = append(b, "|floor="...)
	b = strconv.AppendInt(b, int64(c.Spec.MinSafeMV), 10)
	b = append(b, "|fc="...)
	b = strconv.AppendInt(b, int64(c.FreqClass), 10)
	b = append(b, "|cores="...)
	for i, id := range cores {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, "|bench="...)
	if c.Bench != nil {
		// The workload catalog is part of the identity: a benchmark's Vmin
		// offset feeds SafeVmin directly.
		b = append(b, c.Bench.Name...)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(c.Bench.VminOffsetMV), 10)
	}
	if c.PMDOffsets != nil {
		b = append(b, "|pmdoff="...)
		for i, o := range c.PMDOffsets {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(o), 10)
		}
	}
	b = append(b, "|salt="...)
	b = strconv.AppendInt(b, ch.Salt, 10)
	b = append(b, "|safe="...)
	b = strconv.AppendInt(b, int64(safe), 10)
	b = append(b, "|unsafe="...)
	b = strconv.AppendInt(b, int64(unsafe), 10)
	return Key{id: string(b)}
}

// String returns the canonical key string (stored verbatim in disk
// entries so a loaded file can prove it belongs to its name).
func (k Key) String() string { return k.id }
