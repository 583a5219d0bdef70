package experiments

import (
	"fmt"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/daemon"
	"avfs/internal/sched"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/telemetry"
	"avfs/internal/vmin"
)

// Stack is a machine's control stack under a Table IV configuration: the
// machine's telemetry, the Linux-like baseline and the paper's daemon,
// attached in that order (so hooks fire in one order) with exactly the
// configuration's one stack enabled, plus an optional power cap composed
// beside it. A disabled stack's hooks are inert and impose no tick
// boundary.
//
// It is the only wiring of a machine to its telemetry and controllers:
// campaign cells, fleet sessions, what-if branches, the avfsd REPL and
// the facade's NewStack all build through it, so a session under a
// configuration runs that configuration's campaign cell.
type Stack struct {
	M      *sim.Machine
	Config SystemConfig
	Base   *sched.Baseline
	D      *daemon.Daemon
	// Cap is the composed power-cap governor, nil until first needed.
	// Machines have no hook removal, so it is attached once and then
	// toggled or retuned.
	Cap *sched.PowerCap
}

// attachStack wires m's telemetry and hooks the baseline and then the
// daemon onto m; the machine and the daemon report to reg and tr when
// they are non-nil.
func attachStack(m *sim.Machine, poll float64, reg *telemetry.Registry, tr *telemetry.Tracer) *Stack {
	telemetry.WireMachine(m, reg, tr)
	dc := daemon.DefaultConfig()
	if poll > 0 {
		dc.PollInterval = poll
	}
	s := &Stack{M: m, Base: sched.NewBaseline(m), D: daemon.New(m, dc)}
	s.D.Instrument(reg, tr)
	s.D.Attach()
	return s
}

// NewStack attaches both stacks to a fresh machine and programs cfg.
// poll is the daemon's monitoring period (<= 0 keeps the default).
func NewStack(m *sim.Machine, cfg SystemConfig, poll float64, reg *telemetry.Registry, tr *telemetry.Tracer) (*Stack, error) {
	s := attachStack(m, poll, reg, tr)
	if err := s.program(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// RestoreStack restores st's machine, attaches both stacks to it and
// writes st's captured daemon, baseline and power cap over them. The
// electrical state is the machine's, so nothing is reprogrammed. An
// unknown model fails with chip.ErrUnknownModel.
//
// Snapshots come from outside too (peer imports, disk mirrors), so the
// stacks must agree with the policy label: exactly the policy's stack is
// enabled, and under Placement and Optimal the daemon runs that
// configuration at the snapshot's poll interval. A disabled daemon's
// configuration is not checked: after a Placement to Baseline flip it
// stays the Placement one.
func RestoreStack(st *snapshot.SessionState, reg *telemetry.Registry, tr *telemetry.Tracer) (*Stack, error) {
	model, err := chip.ParseModel(st.Model)
	if err != nil {
		return nil, err
	}
	if st.Machine == nil {
		return nil, fmt.Errorf("experiments: snapshot missing machine state")
	}
	m, err := sim.RestoreMachine(chip.SpecFor(model), st.Machine)
	if err != nil {
		return nil, err
	}
	cfg, err := ParseSystemConfig(st.Policy)
	if err != nil {
		return nil, err
	}
	switch d := st.Daemon; {
	case d == nil:
		return nil, fmt.Errorf("experiments: snapshot has no daemon state")
	case d.Disabled == cfg.runsDaemon() || st.Baseline.Disabled != cfg.runsDaemon():
		return nil, fmt.Errorf("experiments: %s snapshot enables the wrong stack (daemon disabled %t, baseline disabled %t)",
			cfg.Name(), d.Disabled, st.Baseline.Disabled)
	case cfg.runsDaemon() && d.Cfg != cfg.daemonConfig(d.Cfg.PollInterval):
		return nil, fmt.Errorf("experiments: %s snapshot's daemon runs another configuration %+v", cfg.Name(), d.Cfg)
	}
	s := attachStack(m, 0, reg, tr)
	s.Config = cfg
	if err := s.D.RestoreState(st.Daemon); err != nil {
		return nil, err
	}
	if err := s.Base.RestoreState(st.Baseline); err != nil {
		return nil, err
	}
	if st.PowerCap != nil {
		if s.Cap, err = sched.RestorePowerCap(m, *st.PowerCap); err != nil {
			return nil, err
		}
		s.Cap.AttachGovernor()
	}
	return s, nil
}

// Capture fills the policy label and controller state of a session
// snapshot. It fails while the daemon's fail-safe transition is in
// flight (the queued phases are closures).
func (s *Stack) Capture(st *snapshot.SessionState) (err error) {
	st.Policy = s.Config.Name()
	st.Baseline = s.Base.CaptureState()
	if s.Cap != nil {
		cs := s.Cap.CaptureState()
		st.PowerCap = &cs
	}
	st.Daemon, err = s.D.CaptureState()
	return err
}

// Apply switches the stack to cfg (a no-op for the active one). It fails
// while the daemon's fail-safe transition is in flight.
func (s *Stack) Apply(cfg SystemConfig) error {
	if cfg == s.Config {
		return nil
	}
	if s.D.TransitionInFlight() {
		return fmt.Errorf("experiments: fail-safe voltage transition draining; retry")
	}
	return s.program(cfg)
}

// program enables cfg's stack, disables the other and sets the voltage
// and frequency cfg starts from.
func (s *Stack) program(cfg SystemConfig) error {
	spec := s.M.Spec
	switch cfg {
	case Baseline, SafeVmin:
		s.D.SetEnabled(false)
		// The default stack owns frequency (ondemand) and assumes a fixed
		// voltage: nominal for Baseline, for Safe Vmin the worst-case
		// class envelope (full speed on every PMD), safe for any placement
		// and frequency the default stack produces (Sec. VI-B).
		s.M.Chip.SetAllFreq(spec.MaxFreq)
		if cfg == SafeVmin {
			s.M.Chip.SetVoltage(vmin.ClassEnvelope(spec, clock.FullSpeed, spec.PMDs()) + GuardMV)
		} else {
			s.M.Chip.SetVoltage(spec.NominalMV)
		}
		s.Base.SetEnabled(true)
	case Placement, Optimal:
		s.Base.SetEnabled(false)
		if cfg == Placement {
			// The Placement configuration holds the voltage at nominal.
			s.M.Chip.SetVoltage(spec.NominalMV)
		}
		if err := s.D.Reconfigure(cfg.daemonConfig(s.D.Cfg.PollInterval)); err != nil {
			return err
		}
		s.D.SetEnabled(true)
	default:
		return fmt.Errorf("experiments: unknown system config %v", cfg)
	}
	s.Config = cfg
	return nil
}

// SetPowerCap caps the machine at w watts beside the active stack, which
// keeps placement; w <= 0 lifts the cap.
func (s *Stack) SetPowerCap(w float64) {
	switch {
	case w <= 0:
		if s.Cap != nil {
			s.Cap.SetEnabled(false)
		}
		return
	case s.Cap == nil:
		s.Cap = sched.NewPowerCap(s.M, w)
		s.Cap.AttachGovernor()
	default:
		s.Cap.SetBudget(w)
	}
	s.Cap.SetEnabled(true)
}

// PowerCapW returns the active power budget, 0 when uncapped.
func (s *Stack) PowerCapW() float64 {
	if s.Cap == nil || !s.Cap.Enabled() {
		return 0
	}
	return s.Cap.BudgetW
}

// runsDaemon reports whether the daemon, not the baseline, owns
// placement under the configuration.
func (c SystemConfig) runsDaemon() bool { return c == Placement || c == Optimal }

// daemonConfig returns the daemon configuration of Placement or Optimal
// at the given poll interval.
func (c SystemConfig) daemonConfig(poll float64) daemon.Config {
	dc := daemon.DefaultConfig()
	if c == Placement {
		dc = daemon.PlacementOnlyConfig()
	}
	dc.PollInterval = poll
	return dc
}
