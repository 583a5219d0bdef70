package avfs

import (
	"avfs/internal/service"
	"avfs/internal/sim"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

// Typed sentinel errors of the public surface. Internal packages wrap
// these with %w at the failure site, so callers branch with errors.Is/As
// instead of string matching; the HTTP service layer (internal/service)
// maps them — together with its own session sentinels — onto status codes.
var (
	// ErrUnknownBenchmark reports a failed catalog lookup (BenchmarkByName,
	// the service's submit endpoint).
	ErrUnknownBenchmark = workload.ErrUnknownBenchmark

	// ErrNoSafeVmin reports a characterization whose sweep found no clean
	// undervolt point — nominal voltage itself failed the safe-run
	// criterion (Characterization.SafeVminOrErr, Fig5Line.SafeVminOrErr).
	ErrNoSafeVmin = vmin.ErrNoSafeVmin

	// ErrInvalidProcess rejects a malformed Submit: no threads, or
	// multiple threads of a single-threaded program.
	ErrInvalidProcess = sim.ErrInvalidProcess

	// ErrInvalidPlacement rejects a Place or Reassign whose core
	// assignment is malformed, conflicting, or in the wrong process state.
	ErrInvalidPlacement = sim.ErrInvalidPlacement

	// ErrNotIdle is RunUntilIdle's timeout: the budget elapsed with work
	// still running or pending (usually an unplaceable process).
	ErrNotIdle = sim.ErrNotIdle

	// ErrSessionNotFound reports an unknown (or reaped) control-plane
	// session ID; the server answers it with 404 session_not_found.
	ErrSessionNotFound = service.ErrSessionNotFound

	// ErrBusy is the fleet's backpressure signal: the run admission queue
	// is saturated. The server answers 429 with a Retry-After header.
	ErrBusy = service.ErrBusy

	// ErrFleetFull rejects session creation beyond the configured
	// live-session cap (429 fleet_full on the wire).
	ErrFleetFull = service.ErrFleetFull

	// ErrDraining rejects new sessions and runs while the fleet shuts
	// down gracefully (503 draining on the wire).
	ErrDraining = service.ErrDraining
)
