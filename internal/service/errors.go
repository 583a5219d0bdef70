// Package service is the AVFS fleet control plane: a multi-tenant host
// for many independent (Machine, Daemon) sessions behind the HTTP/JSON v1
// API defined in avfs/api. The paper's daemon is a long-running system
// service supervising one chip (Sec. V); the fleet generalizes that to a
// datacenter-operator view — one controller, many simulated servers —
// which is the shape the Pythia/CLITE line of work assumes.
//
// Concurrency model (the per-session single-writer actor):
//
//   - Every session owns a mutex; all machine, daemon and trace state is
//     touched only under it, so concurrent requests on one session
//     serialize while distinct sessions proceed in parallel.
//   - Simulated-time advances (the only expensive operation) execute on a
//     bounded worker pool (internal/experiments/runner.Pool). A full
//     admission queue surfaces as ErrBusy, which the HTTP layer maps to
//     429 + Retry-After — the backpressure path.
//   - Long runs hold the session lock one chunk of simulated time at a
//     time (runChunk, one simulated second), so reads and submits
//     interleave with an in-flight run at chunk granularity instead of
//     blocking behind it.
//   - Request deadlines and cancellation propagate into the simulation
//     through Machine.RunForContext, which re-checks the context at every
//     tick-batch commit.
package service

import (
	"errors"

	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/experiments/runner"
)

// Typed sentinel errors of the control plane. The HTTP layer's status
// table (statusTable in http.go) maps them — plus the library's own
// sentinels — onto status codes and stable wire codes; everything else
// surfaces as 500/internal.
var (
	// ErrSessionNotFound reports an unknown (or already reaped) session ID.
	ErrSessionNotFound = errors.New("service: session not found")
	// ErrJobNotFound reports an unknown async-run handle.
	ErrJobNotFound = errors.New("service: job not found")
	// ErrUnknownModel rejects a create request naming no known chip.
	ErrUnknownModel = chip.ErrUnknownModel
	// ErrUnknownPolicy rejects a policy outside the four Table IV
	// configurations (baseline, safe-vmin, placement, optimal).
	ErrUnknownPolicy = experiments.ErrUnknownPolicy
	// ErrConflict rejects an operation that cannot interleave with the
	// session's current state (e.g. a policy flip while the daemon's
	// fail-safe transition is in flight).
	ErrConflict = errors.New("service: conflict with in-flight transition")
	// ErrFleetFull rejects session creation beyond Config.MaxSessions.
	ErrFleetFull = errors.New("service: fleet full")
	// ErrDraining rejects new work while the fleet shuts down gracefully.
	ErrDraining = errors.New("service: draining")
	// ErrClosed rejects every request once the fleet is force-closed: the
	// session contexts are cancelled and the pool is gone, so failing fast
	// with 503 beats racing the dead manager.
	ErrClosed = errors.New("service: closed")
	// ErrInvalidRequest rejects a malformed request body or parameter.
	ErrInvalidRequest = errors.New("service: invalid request")
	// ErrSnapshotNotFound reports a fork/what-if request naming a snapshot
	// id the store cannot resolve (never stored, corrupted on disk, or
	// written by an incompatible format version).
	ErrSnapshotNotFound = errors.New("service: snapshot not found")

	// ErrBusy is the pool-saturation backpressure signal (429 +
	// Retry-After): every worker is busy and the admission queue is full.
	ErrBusy = runner.ErrSaturated
)
