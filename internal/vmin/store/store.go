package store

import (
	"avfs/internal/castore"
	"avfs/internal/chip"
	"avfs/internal/telemetry"
	"avfs/internal/vmin"
)

// Metric names registered by Instrument.
const (
	// MetricHits counts cells served without simulation, split by tier
	// (label tier="memory"|"disk").
	MetricHits = "avfs_characterize_cache_hits_total"
	// MetricMisses counts cells the store had to simulate.
	MetricMisses = "avfs_characterize_cache_misses_total"
	// MetricInflightWaits counts Get calls that blocked on another
	// caller's in-flight computation of the same cell instead of
	// duplicating it.
	MetricInflightWaits = "avfs_characterize_cache_inflight_waits_total"
	// MetricEntries gauges the datasets resident in the in-process tier.
	MetricEntries = "avfs_characterize_cache_entries"
)

// dataset is the cacheable portion of a Characterization: everything
// except the Config pointer, which is rebound to each caller's own
// configuration on the way out.
type dataset struct {
	SafeVmin  chip.Millivolts    `json:"safe_vmin_mv"`
	SafeFound bool               `json:"safe_found"`
	TotalRuns int                `json:"total_runs"`
	Levels    []vmin.LevelResult `json:"levels"`
}

// characterization materializes the dataset for one caller. Levels is
// copied so callers can never corrupt the cached slice (LevelResult has
// no reference types after the FaultTally retype, so a shallow copy is a
// deep copy); nil-ness is preserved for deep-equality with an uncached
// sweep.
func (d dataset) characterization(c *vmin.Config) vmin.Characterization {
	var levels []vmin.LevelResult
	if d.Levels != nil {
		levels = make([]vmin.LevelResult, len(d.Levels))
		copy(levels, d.Levels)
	}
	return vmin.Characterization{
		Config:    c,
		SafeVmin:  d.SafeVmin,
		SafeFound: d.SafeFound,
		Levels:    levels,
		TotalRuns: d.TotalRuns,
	}
}

// Store is a two-tier, content-addressed characterization cache over
// castore: its counters (Hits, DiskHits, Misses, InflightWaits, Entries)
// are the cache's. Construct with New. A nil *Store is a valid "no
// caching" store: Get computes directly.
type Store struct {
	*castore.Store[dataset]

	// compute is the sweep implementation; tests replace it to make
	// singleflight behaviour observable.
	compute func(*vmin.Characterizer, *vmin.Config) vmin.Characterization
}

// New builds a store. dir is the on-disk tier's directory ("" disables
// persistence); it is created lazily on the first write.
func New(dir string) *Store {
	return &Store{
		Store:   castore.New[dataset](dir, vmin.ModelVersion, nil),
		compute: (*vmin.Characterizer).Characterize,
	}
}

// Get returns the characterization of (ch, cfg), running the sweep only
// if neither tier has it. Concurrent Gets for the same key collapse onto
// one computation. The returned Characterization is deep-equal to
// ch.Characterize(cfg) — same SafeVmin, SafeFound, Levels and TotalRuns,
// with Config bound to cfg — and owns its Levels slice.
//
// A nil store performs no caching and simply computes.
func (s *Store) Get(ch *vmin.Characterizer, cfg *vmin.Config) (vmin.Characterization, castore.Source) {
	if s == nil {
		return ch.Characterize(cfg), castore.Computed
	}
	// The sweep never fails; an invalid configuration panics inside it.
	d, src, _ := s.Store.Get(KeyFor(ch, cfg).id, func() (dataset, error) {
		cz := s.compute(ch, cfg)
		return dataset{SafeVmin: cz.SafeVmin, SafeFound: cz.SafeFound, TotalRuns: cz.TotalRuns, Levels: cz.Levels}, nil
	})
	return d.characterization(cfg), src
}

// Instrument registers the store's counters on a telemetry registry
// (pull-time CounterFuncs over the atomic tallies, so the hot path pays
// nothing extra).
func (s *Store) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc(MetricHits,
		"Characterization cells served from the in-process store tier.",
		func() float64 { return float64(s.Hits()) },
		telemetry.Labels("tier", "memory")...)
	reg.CounterFunc(MetricHits,
		"Characterization cells served from the on-disk store tier.",
		func() float64 { return float64(s.DiskHits()) },
		telemetry.Labels("tier", "disk")...)
	reg.CounterFunc(MetricMisses,
		"Characterization cells the store had to simulate.",
		func() float64 { return float64(s.Misses()) })
	reg.CounterFunc(MetricInflightWaits,
		"Store lookups that waited on an in-flight computation of the same cell.",
		func() float64 { return float64(s.InflightWaits()) })
	reg.Gauge(MetricEntries,
		"Characterization datasets resident in the in-process store tier.",
		func() float64 { return float64(s.Entries()) })
}
