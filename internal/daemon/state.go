package daemon

import (
	"fmt"

	"avfs/internal/perfmon"
)

// This file is the controller half of session snapshots: the daemon's
// mutable decision-loop state, captured so a restored (machine, daemon)
// pair takes exactly the decisions the original would have — same poll
// instants, same open measurement windows, same hysteresis history.

// ProcControlState is the daemon's serialized bookkeeping for one process.
type ProcControlState struct {
	Proc  int `json:"proc"`
	Class int `json:"class"`
	// Sample carries the open measurement window, if any; SampleCores is
	// the core set it was opened on.
	Sample      *perfmon.SampleState `json:"sample,omitempty"`
	SampleCores []int                `json:"sample_cores,omitempty"`
}

// State is the daemon's complete serializable controller state. A daemon
// with a staged transition in flight cannot be captured: the queued
// fail-safe phases and the plan they apply are not part of it.
type State struct {
	Cfg       Config             `json:"cfg"`
	Disabled  bool               `json:"disabled"`
	NextPoll  float64            `json:"next_poll"`
	Dirty     bool               `json:"dirty"`
	Stats     Stats              `json:"stats"`
	Reconfigs int64              `json:"reconfigs"`
	Procs     []ProcControlState `json:"procs,omitempty"`
}

// CaptureState snapshots the daemon's controller state. It fails while a
// staged transition is in flight — callers should retry after the
// fail-safe sequence settles (at most 3*TransitionTicks ticks).
func (d *Daemon) CaptureState() (*State, error) {
	if len(d.queue) > 0 {
		return nil, fmt.Errorf("daemon: transition in flight; snapshot after it settles")
	}
	st := &State{
		Cfg:       d.Cfg,
		Disabled:  d.disabled,
		NextPoll:  d.nextPoll,
		Dirty:     d.dirty,
		Stats:     d.stats,
		Reconfigs: d.reconfigs,
	}
	for _, ps := range d.states.s {
		pcs := ProcControlState{Proc: ps.proc.ID, Class: int(ps.class)}
		if ps.sample != nil {
			s := ps.sample.State()
			pcs.Sample = &s
			for _, c := range ps.sample.Cores() {
				pcs.SampleCores = append(pcs.SampleCores, int(c))
			}
		}
		st.Procs = append(st.Procs, pcs)
	}
	return st, nil
}

// RestoreState overwrites the daemon's controller state from a snapshot.
// The daemon must already be attached (New + optional Instrument + Attach)
// to a machine restored from the matching snapshot; process references are
// resolved against that machine.
func (d *Daemon) RestoreState(st *State) error {
	if st.Cfg.PollInterval <= 0 {
		return fmt.Errorf("daemon: snapshot config has non-positive PollInterval")
	}
	d.Cfg = st.Cfg
	d.disabled = st.Disabled
	d.nextPoll = st.NextPoll
	d.dirty = st.Dirty
	d.stats = st.Stats
	d.reconfigs = st.Reconfigs
	d.states = procTable{}
	for _, pcs := range st.Procs {
		p := d.M.ProcessByID(pcs.Proc)
		if p == nil {
			return fmt.Errorf("daemon: snapshot references unknown or finished process %d", pcs.Proc)
		}
		ps := &procState{proc: p, class: Class(pcs.Class)}
		if pcs.Sample != nil {
			s, err := d.sampler.Reopen(*pcs.Sample)
			if err != nil {
				return fmt.Errorf("daemon: process %d: %w", pcs.Proc, err)
			}
			ps.sample = s
			if len(pcs.SampleCores) != len(s.Cores()) {
				return fmt.Errorf("daemon: process %d sample core mismatch", pcs.Proc)
			}
		}
		d.states.put(ps)
	}
	// The blocked key is not part of the snapshot: the first tick with
	// work pending replans once, as a no-op, and records it afresh.
	d.blockedOK = false
	return nil
}
