package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/surrogate"
)

// This file implements the fleet's snapshot/fork/what-if surface: capture
// a session's full (machine, daemon, baseline) state into the
// content-addressed store, branch deterministic children off it, and
// compare N hypothetical futures of one snapshot in a single call.

// Snapshot captures a session's complete state and stores it, returning
// the content address. Capture fails with ErrConflict while the daemon's
// fail-safe voltage transition is in flight (retry after it settles).
func (f *Fleet) Snapshot(id string) (api.Snapshot, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.Snapshot{}, err
	}
	s.beginJob()
	defer s.endJob(f.cfg.Clock())
	s.mu.Lock()
	st, err := s.captureStateLocked()
	s.mu.Unlock()
	if err != nil {
		return api.Snapshot{}, err
	}
	snapID, err := f.snaps.Put(st)
	if err != nil {
		return api.Snapshot{}, err
	}
	return wireSnapshot(snapID, id, st), nil
}

// wireSnapshot builds the wire form of a stored snapshot.
func wireSnapshot(snapID, sessionID string, st *snapshot.SessionState) api.Snapshot {
	return api.Snapshot{
		ID:        snapID,
		Session:   sessionID,
		Model:     st.Model,
		Policy:    st.Policy,
		Now:       float64(st.Machine.Ticks) * st.Machine.Tick,
		Ticks:     st.Machine.Ticks,
		EnergyJ:   st.Machine.Meter.Total().J(),
		Processes: len(st.Machine.Processes) + len(st.Machine.Finished),
	}
}

// resolveSnapshot turns a request's snapshot reference into state to
// branch from: a non-empty id is looked up (ErrSnapshotNotFound on any
// store miss), an empty one captures the session's current state without
// storing it. Either way the state is read-only. The caller must hold the
// session busy (beginJob) across the call.
func (f *Fleet) resolveSnapshot(s *session, snapID string) (*snapshot.SessionState, error) {
	if snapID != "" {
		st, ok := f.snaps.Get(snapID)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrSnapshotNotFound, snapID)
		}
		return st, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.captureStateLocked()
}

// Fork branches a new session off a snapshot of an existing one. The
// child replays deterministically: advanced over the same inputs, it is
// bit-identical to the parent advanced from the same point. An optional
// policy override flips the child at birth.
func (f *Fleet) Fork(id string, req api.ForkRequest) (api.Fork, error) {
	parent, err := f.lookup(id)
	if err != nil {
		return api.Fork{}, err
	}
	var childCfg experiments.SystemConfig
	if req.Policy != "" {
		if childCfg, err = experiments.ParseSystemConfig(req.Policy); err != nil {
			return api.Fork{}, err
		}
	}
	now := f.cfg.Clock()
	f.mu.Lock()
	err = f.admitLocked("")
	f.mu.Unlock()
	if err != nil {
		return api.Fork{}, err
	}
	cid := f.mintSessionID()

	parent.beginJob()
	st, err := f.resolveSnapshot(parent, req.SnapshotID)
	parent.endJob(f.cfg.Clock())
	if err != nil {
		return api.Fork{}, err
	}

	// Build outside the fleet lock (like Create); publish under it,
	// re-checking the admission windows.
	child, err := restoreSession(f.baseCtx, cid, st, req.TTLSeconds, f.cfg.SessionTTL, now, f.sessionWiring())
	if err != nil {
		return api.Fork{}, err
	}
	if req.Policy != "" {
		// The restored daemon cannot have a transition in flight (capture
		// refuses one), so the flip is always legal here.
		if err := child.stack.Apply(childCfg); err != nil {
			return api.Fork{}, fmt.Errorf("%w: %v", ErrConflict, err)
		}
	}
	ws, err := f.publish(child, now)
	if err != nil {
		return api.Fork{}, err
	}
	return api.Fork{SnapshotID: req.SnapshotID, Session: ws}, nil
}

// branchSpec is one validated what-if branch configuration.
type branchSpec struct {
	name      string
	cfg       *experiments.SystemConfig // nil inherits the snapshot's
	capW      float64
	place     *sim.Placement
	placeName string
}

// parseBranchSpec validates and canonicalizes one wire branch spec.
func parseBranchSpec(b api.WhatIfBranchSpec) (branchSpec, error) {
	var out branchSpec
	if b.Policy != "" {
		cfg, err := experiments.ParseSystemConfig(b.Policy)
		if err != nil {
			return out, err
		}
		out.cfg = &cfg
	}
	if b.PowerCapW < 0 {
		return out, fmt.Errorf("%w: power_cap_watts must be >= 0", ErrInvalidRequest)
	}
	out.capW = b.PowerCapW
	if b.Placement != "" {
		place, err := sim.ParsePlacement(b.Placement)
		if err != nil {
			return out, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		out.place = &place
		out.placeName = place.String()
	}
	out.name = b.Name
	if out.name == "" {
		switch {
		case out.cfg != nil:
			out.name = out.cfg.Name()
		case out.capW > 0:
			out.name = fmt.Sprintf("cap-%gw", out.capW)
		case out.placeName != "":
			out.name = out.placeName
		default:
			out.name = "control"
		}
	}
	return out, nil
}

// WhatIf branches N hypothetical futures from one snapshot of a session
// and advances them one after another in a single job on the fleet's
// worker pool, returning a compared report. The branches are transient:
// they never appear in the session registry and vanish once the report
// is built. An empty branch list compares the four Table IV policies.
func (f *Fleet) WhatIf(ctx context.Context, id string, req api.WhatIfRequest) (api.WhatIfReport, error) {
	s, err := f.admitRun(id, "what-if", req.Seconds)
	if err != nil {
		return api.WhatIfReport{}, err
	}
	wire := req.Branches
	if len(wire) == 0 {
		for _, cfg := range experiments.SystemConfigs() {
			wire = append(wire, api.WhatIfBranchSpec{Policy: cfg.Name()})
		}
	}
	specs := make([]branchSpec, len(wire))
	for i, b := range wire {
		sp, err := parseBranchSpec(b)
		if err != nil {
			return api.WhatIfReport{}, fmt.Errorf("branch %d: %w", i, err)
		}
		specs[i] = sp
	}

	// The session counts as busy for the whole comparison, so the TTL
	// reaper cannot delete it while its branches still run.
	s.beginJob()
	defer s.endJob(f.cfg.Clock())
	st, err := f.resolveSnapshot(s, req.SnapshotID)
	if err != nil {
		return api.WhatIfReport{}, err
	}

	if err := sim.CheckAdvance(st.Machine.Ticks, st.Machine.Tick, req.Seconds); err != nil {
		return api.WhatIfReport{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}

	if req.Fast {
		// The instant tier: every branch answered from the closed-form
		// surrogate.
		return f.whatIfFast(id, st, specs, req)
	}

	report := api.WhatIfReport{
		Session:    id,
		SnapshotID: req.SnapshotID,
		BaseNow:    float64(st.Machine.Ticks) * st.Machine.Tick,
		BaseTicks:  st.Machine.Ticks,
		Seconds:    req.Seconds,
		Source:     whatIfSimulated,
		Branches:   branchReports(st, specs),
	}
	// The job owns the report's branches once it starts; a request
	// cancelled while the job still waits in the queue claims them back
	// and answers without it.
	var claimed atomic.Bool
	done, err := f.pool.Go(ctx, func(jctx context.Context) error {
		if !claimed.CompareAndSwap(false, true) {
			return jctx.Err()
		}
		report.Batch = f.advanceBranches(jctx, st, specs, req.Seconds, req.UntilIdle, report.Branches)
		return nil
	})
	if err == nil {
		select {
		case err = <-done:
		case <-ctx.Done():
			if claimed.CompareAndSwap(false, true) {
				err = ctx.Err()
			} else {
				// advanceBranches notices the cancellation at its next
				// commit and marks the unfinished branches itself.
				err = <-done
			}
		}
	}
	if err != nil {
		for i := range report.Branches {
			if report.Branches[i].Error == nil {
				report.Branches[i].Error = wireError(err)
			}
		}
	}

	fillBests(&report)
	f.publishDrift(st, specs, req.Seconds, req.UntilIdle, report.Branches)
	return report, nil
}

// fillBests names the report's best branch per axis: the lowest window
// energy, and the most in-window completions with makespan breaking
// ties. Shared by the simulated and surrogate paths.
func fillBests(report *api.WhatIfReport) {
	bestEnergy, bestPerf := -1, -1
	for i := range report.Branches {
		b := &report.Branches[i]
		if b.Error != nil {
			continue
		}
		if bestEnergy < 0 || b.EnergyJ < report.Branches[bestEnergy].EnergyJ {
			bestEnergy = i
		}
		if bestPerf < 0 {
			bestPerf = i
		} else if p := &report.Branches[bestPerf]; b.Completed > p.Completed ||
			(b.Completed == p.Completed && b.MakespanS < p.MakespanS) {
			bestPerf = i
		}
	}
	if bestEnergy >= 0 {
		report.BestEnergy = report.Branches[bestEnergy].Name
	}
	if bestPerf >= 0 {
		report.BestPerf = report.Branches[bestPerf].Name
	}
}

// branchRig is one restored, override-applied what-if branch ready to
// advance, with the window baseline its report deltas are measured from.
type branchRig struct {
	m       *sim.Machine
	now0    float64
	energy0 float64
	em0     int
	done0   int
}

// buildBranch restores a transient machine and its control stack from the
// snapshot and applies the branch's overrides. The policy flip and the
// power cap compose exactly as PUT /policy applies them to a live
// session; the branch is unobserved and never enters the registry.
func buildBranch(st *snapshot.SessionState, spec branchSpec) (*branchRig, error) {
	stack, err := experiments.RestoreStack(st, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	m := stack.M
	if spec.cfg != nil {
		// Capture refuses an in-flight transition, so the flip is legal.
		if err := stack.Apply(*spec.cfg); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConflict, err)
		}
	}
	if spec.capW > 0 {
		stack.SetPowerCap(spec.capW)
	}
	if spec.place != nil {
		if err := replaceRunning(m, *spec.place); err != nil {
			return nil, err
		}
	}
	return &branchRig{
		m: m, now0: m.Now(), energy0: m.Meter.Energy(),
		em0: m.EmergencyCount(), done0: m.FinishedCount(),
	}, nil
}

// report fills the branch report with window-delta metrics (measured
// from the snapshot point) at the rig's current state.
func (r *branchRig) report(out *api.WhatIfBranch) {
	m := r.m
	out.Now = m.Now()
	out.Ticks = m.Ticks()
	out.Seconds = m.Now() - r.now0
	out.EnergyJ = m.Meter.Energy() - r.energy0
	if out.Seconds > 0 {
		out.AvgPowerW = out.EnergyJ / out.Seconds
	}
	out.Running = m.RunningCount()
	out.Pending = m.PendingCount()
	out.Emergencies = m.EmergencyCount() - r.em0
	out.VoltageMV = int(m.Chip.Voltage())

	// Branch machines keep their full history past the snapshot point, so
	// the window's completions are the newest entries of the tail.
	fins := m.Finished()
	fins = fins[len(fins)-(m.FinishedCount()-r.done0):]
	out.Completed = len(fins)
	if len(fins) > 0 {
		runtimes := make([]float64, 0, len(fins))
		for _, p := range fins {
			runtimes = append(runtimes, p.Completed-p.Started)
			if span := p.Completed - r.now0; span > out.MakespanS {
				out.MakespanS = span
			}
		}
		sort.Float64s(runtimes)
		out.P50RuntimeS = runtimes[surrogate.RankIndex(len(runtimes), 0.50)]
		out.P99RuntimeS = runtimes[surrogate.RankIndex(len(runtimes), 0.99)]
	}
}

// branchReports returns each branch's report header (name and the
// configuration it runs), the metrics left for the engine to fill.
func branchReports(st *snapshot.SessionState, specs []branchSpec) []api.WhatIfBranch {
	out := make([]api.WhatIfBranch, len(specs))
	for i, sp := range specs {
		out[i] = api.WhatIfBranch{
			Name: sp.name, Policy: st.Policy,
			PowerCapW: sp.capW, Placement: sp.placeName,
		}
		if sp.cfg != nil {
			out[i].Policy = sp.cfg.Name()
		}
	}
	return out
}

// advanceBranches restores every branch and advances each alone on the
// calling goroutine (the what-if's pool job), and fills out (headed by
// branchReports). Per-branch failures land in that branch's Error field;
// a cancellation lands on every branch not yet finished. The returned
// summary records the ticks committed.
func (f *Fleet) advanceBranches(ctx context.Context, st *snapshot.SessionState, specs []branchSpec, seconds float64, untilIdle bool, out []api.WhatIfBranch) *api.WhatIfBatch {
	begin := time.Now()
	bs := &api.WhatIfBatch{SpeedupEst: 1}
	for i := range specs {
		if err := ctx.Err(); err != nil {
			out[i].Error = wireError(err)
			continue
		}
		rig, err := buildBranch(st, specs[i])
		if err != nil {
			out[i].Error = wireError(err)
			continue
		}
		bs.Branches++
		ticks0 := rig.m.Ticks()
		err = advanceMachine(ctx, rig.m, seconds, untilIdle)
		bs.Ticks += rig.m.Ticks() - ticks0
		if err != nil {
			out[i].Error = wireError(err)
			continue
		}
		rig.report(&out[i])
	}
	f.branchTicks.Add(bs.Ticks)
	bs.WallSeconds = time.Since(begin).Seconds()
	if bs.WallSeconds > 0 {
		bs.TicksPerSec = float64(bs.Ticks) / bs.WallSeconds
	}
	return bs
}

// advanceMachine advances m by seconds, or until idle within that budget;
// not reaching idle is not a failure here (a what-if reports it as an
// outcome, a session run checks for it once its last chunk is done).
func advanceMachine(ctx context.Context, m *sim.Machine, seconds float64, untilIdle bool) error {
	if untilIdle {
		if err := m.RunUntilIdleContext(ctx, seconds); !errors.Is(err, sim.ErrNotIdle) {
			return err
		}
		return nil
	}
	return m.RunForContext(ctx, seconds)
}

// replaceRunning re-places every running process's threads in canonical
// placement order (ascending process ID), handing out cores from the
// chip's placement sequence.
func replaceRunning(m *sim.Machine, place sim.Placement) error {
	running := m.Running()
	total := 0
	for _, p := range running {
		total += len(p.Threads)
	}
	if total == 0 {
		return nil
	}
	cores, err := sim.CoresFor(m.Spec, place, total)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	assign := make(map[*sim.Process][]chip.CoreID, len(running))
	next := 0
	for _, p := range running {
		assign[p] = cores[next : next+len(p.Threads)]
		next += len(p.Threads)
	}
	if err := m.Reassign(assign); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return nil
}
