package experiments

import (
	"context"

	"avfs/internal/castore"
	"avfs/internal/experiments/runner"
	"avfs/internal/vmin"
	"avfs/internal/vmin/store"
)

// Campaign controls how an experiment's independent cells execute. The
// zero value is the default campaign: one worker per available CPU, no
// progress sink and no characterization store. Every experiment is
// deterministic regardless of Workers — each cell seeds its own RNG from
// its configuration identity and results are collected in enumeration
// order, so a parallel campaign is deep-equal to the serial (Workers: 1)
// one — and regardless of Store, because store-served datasets are
// deep-equal to freshly computed ones.
type Campaign struct {
	// Workers is the worker-pool width; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Stats, when non-nil, receives cell progress and simulated-run counts
	// (exportable through the telemetry registry; see runner.Stats).
	Stats *runner.Stats
	// Store, when non-nil, memoizes characterization cells behind
	// content-addressed keys: duplicate cells across panels (and across
	// campaigns sharing the store) are served from cache instead of
	// re-running the Monte Carlo sweep, and concurrent workers
	// characterizing the same cell collapse onto one computation. Cells
	// served from the store are reported through Stats.AddCached, keeping
	// them distinguishable from simulated runs.
	Store *store.Store
}

// characterize fetches one characterization cell, through the campaign's
// store when one is configured (a nil store computes directly), and
// attributes the cell's cost on Stats: simulated runs for computed cells,
// cached cells (with the run count the store saved) otherwise.
func (cam Campaign) characterize(ch *vmin.Characterizer, cfg *vmin.Config) vmin.Characterization {
	cz, src := cam.Store.Get(ch, cfg)
	if src == castore.Computed {
		cam.Stats.AddRuns(cz.TotalRuns)
	} else {
		cam.Stats.AddCached(cz.TotalRuns)
	}
	return cz
}

// runCells dispatches fn over cells through the campaign's worker pool,
// preserving cell order in the results.
func runCells[J, R any](ctx context.Context, cam Campaign, cells []J, fn func(context.Context, J) (R, error)) ([]R, error) {
	return runner.RunStats(ctx, cells, cam.Workers, cam.Stats, fn)
}
