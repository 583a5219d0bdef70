package sim

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors for the simulator's rejection paths. Call sites wrap
// them with %w so callers (and the HTTP service layer, which maps them to
// status codes) can test with errors.Is instead of string matching.
var (
	// ErrInvalidProcess rejects a malformed Submit (no threads, or
	// multiple threads of a single-threaded program).
	ErrInvalidProcess = errors.New("sim: invalid process")
	// ErrInvalidPlacement rejects a Place or Reassign whose core
	// assignment is malformed, conflicting or in the wrong process state.
	ErrInvalidPlacement = errors.New("sim: invalid placement")
	// ErrNotIdle is returned by RunUntilIdle when the deadline passes with
	// work still running or pending (usually an unplaceable process).
	ErrNotIdle = errors.New("sim: machine not idle")
)

// RunForContext advances the simulation by d simulated seconds, checking
// ctx between tick commits: every OnTickBounded boundary (daemon poll,
// governor sample, arrival) and every exact tick re-checks the context, so a
// cancelled request abandons a long run at the next commit instead of
// finishing it. The simulation is left in a consistent state at whatever
// tick the cancellation landed on; the context's error is returned. A
// tick length CheckTick refuses is an error before any step: simulated
// time could not advance on it.
func (m *Machine) RunForContext(ctx context.Context, d float64) error {
	if err := CheckTick(m.Tick); err != nil {
		return err
	}
	end := m.now + d
	for m.now < end-1e-12 {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.advance(m.ticksUntil(end - 1e-12))
	}
	return nil
}

// RunUntilIdleContext advances until no process is running or pending, or
// until maxSeconds of additional simulated time elapse, re-checking ctx at
// every commit like RunForContext. A timeout wraps ErrNotIdle; a tick
// length CheckTick refuses is an error before any step.
func (m *Machine) RunUntilIdleContext(ctx context.Context, maxSeconds float64) error {
	if err := CheckTick(m.Tick); err != nil {
		return err
	}
	deadline := m.now + maxSeconds - 1e-12
	for m.now < deadline {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(m.running) == 0 && len(m.pending) == 0 {
			return nil
		}
		m.advance(m.ticksUntil(deadline))
	}
	if len(m.running) != 0 || len(m.pending) != 0 {
		return fmt.Errorf("%w after %.0fs (running=%d pending=%d)",
			ErrNotIdle, maxSeconds, len(m.running), len(m.pending))
	}
	return nil
}
