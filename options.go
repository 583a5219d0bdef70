package avfs

import (
	"fmt"

	"avfs/internal/daemon"
	"avfs/internal/sim"
	"avfs/internal/telemetry"
)

// TelemetryRegistry collects the library's metrics (see internal/telemetry).
type TelemetryRegistry = telemetry.Registry

// DecisionTracer records structured daemon decision traces.
type DecisionTracer = telemetry.Tracer

// NewTelemetryRegistry creates an empty metric registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewDecisionTracer creates a decision tracer. Enable it and subscribe a
// sink (e.g. export.NewJSONL(w).Attach(tr)) to receive records.
func NewDecisionTracer() *DecisionTracer { return telemetry.NewTracer() }

// Option configures a Machine under construction (NewMachineWithOptions).
type Option func(*Machine) error

// WithTick overrides the integration step (default 10 ms). The step must
// be finite, positive and at most sim.MaxTick (1 s).
func WithTick(seconds float64) Option {
	return func(m *Machine) error {
		if err := sim.CheckTick(seconds); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOption, err)
		}
		m.Tick = seconds
		return nil
	}
}

// WithMigrationPenalty stalls migrated threads for the given number of
// seconds (default 0, the paper's free-migration approximation).
func WithMigrationPenalty(seconds float64) Option {
	return func(m *Machine) error {
		if seconds < 0 {
			return fmt.Errorf("%w: migration penalty %v s (must be >= 0)", ErrInvalidOption, seconds)
		}
		m.SetMigrationPenalty(seconds)
		return nil
	}
}

// WithVminDrift ages the silicon: every true safe-Vmin requirement rises
// by mv (see Machine.SetVminDrift).
func WithVminDrift(mv Millivolts) Option {
	return func(m *Machine) error {
		if mv < 0 {
			return fmt.Errorf("%w: vmin drift %d mV (must be >= 0)", ErrInvalidOption, mv)
		}
		m.SetVminDrift(mv)
		return nil
	}
}

// WithEventLog enables the machine's structured event log from tick zero.
func WithEventLog() Option {
	return func(m *Machine) error {
		m.EnableEventLog()
		return nil
	}
}

// WithMachineTelemetry wires the machine's electrical and progress state
// into a metric registry and/or event tracer; either may be nil.
func WithMachineTelemetry(reg *TelemetryRegistry, tr *DecisionTracer) Option {
	return func(m *Machine) error {
		telemetry.WireMachine(m, reg, tr)
		return nil
	}
}

// NewMachineWithOptions creates an idle simulated server of the given
// model — nominal voltage, every PMD at maximum frequency — then applies
// the options in order. The first failing option aborts construction.
func NewMachineWithOptions(model Model, opts ...Option) (*Machine, error) {
	m := sim.New(Spec(model))
	for _, opt := range opts {
		if err := opt(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// daemonOptions accumulates NewDaemonWithOptions configuration.
type daemonOptions struct {
	cfg    DaemonConfig
	reg    *TelemetryRegistry
	tracer *DecisionTracer
}

// DaemonOption configures a Daemon under construction
// (NewDaemonWithOptions).
type DaemonOption func(*daemonOptions) error

// WithDaemonConfig replaces the whole configuration (default
// OptimalDaemonConfig). Field-level options compose on top when listed
// after it.
func WithDaemonConfig(cfg DaemonConfig) DaemonOption {
	return func(o *daemonOptions) error {
		o.cfg = cfg
		return nil
	}
}

// WithPollInterval overrides the daemon's monitoring period (default 0.4 s,
// the paper's 1M-cycle window).
func WithPollInterval(seconds float64) DaemonOption {
	return func(o *daemonOptions) error {
		if seconds <= 0 {
			return fmt.Errorf("%w: poll interval %v s (must be > 0)", ErrInvalidOption, seconds)
		}
		o.cfg.PollInterval = seconds
		return nil
	}
}

// WithGuardMV overrides the guardband added above the Table II envelope
// when programming the voltage (default one 5 mV regulator step).
func WithGuardMV(mv Millivolts) DaemonOption {
	return func(o *daemonOptions) error {
		if mv < 0 {
			return fmt.Errorf("%w: guardband %d mV (must be >= 0)", ErrInvalidOption, mv)
		}
		o.cfg.GuardMV = mv
		return nil
	}
}

// WithHysteresis overrides the classification hysteresis band (default
// ±10% around the L3C threshold).
func WithHysteresis(frac float64) DaemonOption {
	return func(o *daemonOptions) error {
		if frac < 0 || frac >= 1 {
			return fmt.Errorf("%w: hysteresis %v (must be in [0, 1))", ErrInvalidOption, frac)
		}
		o.cfg.Hysteresis = frac
		return nil
	}
}

// WithTransitionTicks staggers the fail-safe protocol's phases over
// simulator ticks, modelling voltage-ramp and migration latencies
// (default 0: atomic transitions).
func WithTransitionTicks(n int) DaemonOption {
	return func(o *daemonOptions) error {
		if n < 0 {
			return fmt.Errorf("%w: transition ticks %d (must be >= 0)", ErrInvalidOption, n)
		}
		o.cfg.TransitionTicks = n
		return nil
	}
}

// WithDaemonTelemetry wires the daemon's decision counters and trace
// records into a registry and/or tracer; either may be nil.
func WithDaemonTelemetry(reg *TelemetryRegistry, tr *DecisionTracer) DaemonOption {
	return func(o *daemonOptions) error {
		o.reg = reg
		o.tracer = tr
		return nil
	}
}

// NewDaemonWithOptions creates the online monitoring daemon for a machine,
// starting from OptimalDaemonConfig and applying the options in order.
// Call Attach on the result to start it.
func NewDaemonWithOptions(m *Machine, opts ...DaemonOption) (*Daemon, error) {
	o := daemonOptions{cfg: daemon.DefaultConfig()}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.cfg.PollInterval <= 0 {
		return nil, fmt.Errorf("%w: poll interval %v s (must be > 0)", ErrInvalidOption, o.cfg.PollInterval)
	}
	d := daemon.New(m, o.cfg)
	d.Instrument(o.reg, o.tracer)
	return d, nil
}
