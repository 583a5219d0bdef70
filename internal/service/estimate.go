package service

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/surrogate"
	"avfs/internal/workload"
)

// This file is the serving-path side of the fleet's instant-estimate
// tier: GET /v1/estimate answers closed-form surrogate queries with no
// session at all, and the fast what-if mode answers every branch of a
// POST /v1/sessions/{id}/whatif from the surrogate in microseconds,
// optionally kicking off the full simulated comparison as a background
// refinement job whose outcome feeds the surrogate error gauge.

// WhatIfReport.Source values.
const (
	whatIfSimulated = "simulated"
	whatIfSurrogate = "surrogate"
)

// estimatorEntry serializes queries against one fitted estimator
// variant: an Estimator owns scratch buffers and is NOT safe for
// concurrent use, so each (chip, tech node, roadmap) variant answers one
// query at a time under its own lock. The estimator is built lazily on
// first use (a fit simulates a few dozen calibration runs; the fitted
// model is shared across variants through the surrogate store).
type estimatorEntry struct {
	mu  sync.Mutex
	est *surrogate.Estimator
}

// withEstimator runs fn with the fitted estimator for (spec, node, sm),
// holding the variant's lock across the call. Fit failures are not
// cached: the next call retries.
func (f *Fleet) withEstimator(spec *chip.Spec, model string, node surrogate.TechNode, sm surrogate.ScalingModel, fn func(*surrogate.Estimator) error) error {
	key := fmt.Sprintf("%s|%s|%s", model, node, sm)
	f.estMu.Lock()
	e, ok := f.estimators[key]
	if !ok {
		e = &estimatorEntry{}
		f.estimators[key] = e
	}
	f.estMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.est == nil {
		m, err := f.surModels.Get(spec, surrogate.FitConfig{})
		if err != nil {
			return fmt.Errorf("surrogate fit for %s: %w", model, err)
		}
		est, err := surrogate.NewEstimator(spec, m, node, sm)
		if err != nil {
			return err
		}
		e.est = est
	}
	return fn(e.est)
}

// Estimate answers one instant-estimate query: a closed-form surrogate
// prediction (or grid search) for a configuration point on a real or
// node-projected chip. No session is involved; the first query per
// (chip, node, roadmap) variant pays the one-time model fit (or loads
// it from the cache directory), every later one is microseconds.
func (f *Fleet) Estimate(req api.EstimateRequest) (api.Estimate, error) {
	spec, model, err := parseModel(req.Model)
	if err != nil {
		return api.Estimate{}, err
	}
	node, err := surrogate.ParseTechNode(req.Node)
	if err != nil {
		return api.Estimate{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	sm, err := surrogate.ParseScalingModel(req.Scaling)
	if err != nil {
		return api.Estimate{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	if req.Benchmark == "" {
		return api.Estimate{}, fmt.Errorf("%w: bench is required", ErrInvalidRequest)
	}
	b, err := workload.ByName(req.Benchmark)
	if err != nil {
		return api.Estimate{}, err
	}
	place, _, err := parsePlacement(req.Placement)
	if err != nil {
		return api.Estimate{}, err
	}
	var voltage chip.Millivolts
	switch strings.ToLower(strings.TrimSpace(req.Voltage)) {
	case "", "nominal":
	case "safe-vmin", "safevmin", "safe_vmin":
		voltage = surrogate.VoltageSafeVmin
	default:
		return api.Estimate{}, fmt.Errorf("%w: voltage %q (want nominal or safe-vmin)", ErrInvalidRequest, req.Voltage)
	}
	if req.Threads < 0 || req.FreqMHz < 0 {
		return api.Estimate{}, fmt.Errorf("%w: threads and freq_mhz must be >= 0", ErrInvalidRequest)
	}
	search := strings.ToLower(strings.TrimSpace(req.Search))
	var obj surrogate.Objective
	switch search {
	case "", "energy":
		obj = surrogate.ObjectiveEnergy
	case "ed2p":
		obj = surrogate.ObjectiveED2P
	default:
		return api.Estimate{}, fmt.Errorf("%w: search %q (want energy or ed2p)", ErrInvalidRequest, req.Search)
	}

	out := api.Estimate{Model: model, Search: search}
	err = f.withEstimator(spec, model, node, sm, func(est *surrogate.Estimator) error {
		var e surrogate.Estimate
		var qerr error
		if search != "" {
			e, qerr = est.SearchEnergyOptimal(surrogate.SearchQuery{
				Bench: b, Threads: req.Threads, Objective: obj,
			})
		} else {
			e, qerr = est.EstimateEnergy(surrogate.Query{
				Bench: b, Threads: req.Threads, Placement: place,
				Freq: chip.MHz(req.FreqMHz), Voltage: voltage,
			})
		}
		if qerr != nil {
			return fmt.Errorf("%w: %v", ErrInvalidRequest, qerr)
		}
		out.Chip = est.Spec.Name
		out.NodeNM = int(est.Node)
		out.Scaling = est.SM.String()
		out.Benchmark = e.Bench
		out.Threads = e.Threads
		out.Placement = "clustered"
		if e.Placement == sim.Spreaded {
			out.Placement = "spreaded"
		}
		out.FreqMHz = int(e.FreqMHz)
		out.VoltageMV = int(e.VoltageMV)
		out.RuntimeS = e.RuntimeS
		out.AvgPowerW = e.AvgPowerW
		out.EnergyJ = e.EnergyJ
		out.EDP = e.EDP
		out.ED2P = e.ED2P
		return nil
	})
	if err != nil {
		return api.Estimate{}, err
	}
	f.mSurQueries.Inc()
	return out, nil
}

// surrogateProcs extracts the remaining work of a snapshot's pending and
// running processes as surrogate process descriptors: the slowest
// thread's remaining instruction fraction drives the closed-form finish
// time.
func surrogateProcs(st *snapshot.SessionState) ([]surrogate.Proc, error) {
	procs := make([]surrogate.Proc, 0, len(st.Machine.Processes))
	for _, p := range st.Machine.Processes {
		if sim.ProcState(p.State) == sim.Finished {
			continue
		}
		b, err := workload.ByName(p.Bench)
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot process %d: %v", ErrInvalidRequest, p.ID, err)
		}
		rem := 0.0
		for _, t := range p.Threads {
			if t.InstrTotal > 0 {
				if r := (t.InstrTotal - t.InstrDone) / t.InstrTotal; r > rem {
					rem = r
				}
			}
		}
		if rem <= 0 {
			continue
		}
		procs = append(procs, surrogate.Proc{
			Bench: b, Threads: len(p.Threads), StartS: 0, RemFrac: rem,
		})
	}
	return procs, nil
}

// whatIfFast answers every branch of a what-if from the surrogate: one
// EstimateSet per branch over the snapshot's remaining work, microseconds
// in total where the simulated path pays milliseconds per branch.
func (f *Fleet) whatIfFast(id, snapID string, st *snapshot.SessionState, specs []branchSpec, req api.WhatIfRequest) (api.WhatIfReport, error) {
	spec, model, err := parseModel(st.Model)
	if err != nil {
		return api.WhatIfReport{}, err
	}
	procs, err := surrogateProcs(st)
	if err != nil {
		return api.WhatIfReport{}, err
	}
	report := api.WhatIfReport{
		Session:    id,
		SnapshotID: snapID,
		BaseNow:    float64(st.Machine.Ticks) * st.Machine.Tick,
		BaseTicks:  st.Machine.Ticks,
		Seconds:    req.Seconds,
		Source:     whatIfSurrogate,
		Branches:   branchReports(st, specs),
	}
	err = f.withEstimator(spec, model, 0, surrogate.CONS, func(est *surrogate.Estimator) error {
		for i := range specs {
			sp := specs[i]
			out := &report.Branches[i]
			cfg, err := experiments.ParseSystemConfig(out.Policy)
			if err != nil {
				return err
			}
			bs := surrogate.BranchSpec{Config: cfg, PowerCapW: sp.capW}
			if sp.place != nil {
				bs.Placement, bs.HasPlacement = *sp.place, true
			}
			se := est.EstimateSet(procs, bs, req.Seconds, req.UntilIdle)
			out.Seconds = se.Seconds
			out.Now = report.BaseNow + se.Seconds
			out.EnergyJ = se.EnergyJ
			out.AvgPowerW = se.AvgPowerW
			out.Completed, out.Running, out.Pending = se.Completed, se.Running, se.Pending
			out.MakespanS = se.MakespanS
			out.P50RuntimeS, out.P99RuntimeS = se.P50RuntimeS, se.P99RuntimeS
			out.VoltageMV = int(se.VoltageMV)
			f.mSurQueries.Inc()
		}
		return nil
	})
	if err != nil {
		return api.WhatIfReport{}, err
	}
	fillBests(&report)
	return report, nil
}

// startRefinement launches the full simulated comparison behind a fast
// what-if answer as a background job on the session. The finished job
// carries the simulated report (api.Job.WhatIf), and its completion
// updates the refinement counter and the surrogate error gauge with the
// largest relative energy error between the fast and simulated branches.
func (f *Fleet) startRefinement(s *session, id, snapID string, st *snapshot.SessionState, specs []branchSpec, req api.WhatIfRequest, fast *api.WhatIfReport) (string, error) {
	f.mu.Lock()
	f.nextJob++
	jid := fmt.Sprintf("j-%06d", f.nextJob)
	f.mu.Unlock()

	jctx, cancel := context.WithCancel(s.ctx)
	j := &job{
		id:        jid,
		seconds:   req.Seconds,
		untilIdle: req.UntilIdle,
		status:    api.JobQueued,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	s.mu.Lock()
	if s.migrating {
		s.mu.Unlock()
		cancel()
		return "", fmt.Errorf("%w: session migrating to a peer", ErrConflict)
	}
	s.jobs = append(s.jobs, j)
	s.activeJobs++
	s.mu.Unlock()

	baseNow, baseTicks := fast.BaseNow, fast.BaseTicks
	doneCh, err := f.pool.Go(jctx, func(ctx context.Context) error {
		s.mu.Lock()
		j.status = api.JobRunning
		s.mu.Unlock()
		rep := api.WhatIfReport{
			Session:    id,
			SnapshotID: snapID,
			BaseNow:    baseNow,
			BaseTicks:  baseTicks,
			Seconds:    req.Seconds,
			Source:     whatIfSimulated,
			Branches:   branchReports(st, specs),
		}
		// Already on a pool worker: advance the branches inline.
		rep.Batch = f.advanceBranches(ctx, st, specs, req.Seconds, req.UntilIdle, rep.Branches)
		runErr := ctx.Err()
		if runErr == nil {
			fillBests(&rep)
			f.mSurRefines.Inc()
			f.surRefineErr.Store(math.Float64bits(refineRelErr(fast, &rep)))
		}
		s.mu.Lock()
		j.whatif = &rep
		j.err = runErr
		switch {
		case runErr == nil:
			j.status = api.JobDone
		case ctx.Err() != nil:
			j.status = api.JobCanceled
		default:
			j.status = api.JobFailed
		}
		s.activeJobs--
		s.mu.Unlock()
		close(j.done)
		return runErr
	})
	if err != nil {
		// Admission failed: withdraw the handle (by identity — another
		// request may have appended since).
		s.mu.Lock()
		for i, cand := range s.jobs {
			if cand == j {
				s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
				break
			}
		}
		s.activeJobs--
		s.mu.Unlock()
		cancel()
		f.mRejected.Inc()
		return "", err
	}
	// A job cancelled while still queued is retired by the pool without
	// ever running its body; finalize the handle from the done channel.
	go func() {
		<-doneCh
		s.mu.Lock()
		if j.status == api.JobQueued {
			j.status = api.JobCanceled
			j.err = jctx.Err()
			s.activeJobs--
			s.mu.Unlock()
			close(j.done)
			return
		}
		s.mu.Unlock()
	}()
	f.mRuns.Inc()
	return jid, nil
}

// refineRelErr is the largest relative energy error between the fast
// (surrogate) and refined (simulated) reports over branches both engines
// answered — what the avfs_surrogate_refine_rel_err gauge reports.
func refineRelErr(fast, refined *api.WhatIfReport) float64 {
	worst := 0.0
	for i := range refined.Branches {
		if i >= len(fast.Branches) {
			break
		}
		r, q := &refined.Branches[i], &fast.Branches[i]
		if r.Error != nil || q.Error != nil || r.EnergyJ <= 0 {
			continue
		}
		if e := math.Abs(q.EnergyJ-r.EnergyJ) / r.EnergyJ; e > worst {
			worst = e
		}
	}
	return worst
}
