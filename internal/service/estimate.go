package service

import (
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
// session at all, the fast what-if mode answers every branch of a
// POST /v1/sessions/{id}/whatif from the surrogate in microseconds, and
// every simulated what-if checks the surrogate against its own result to
// feed the surrogate drift gauge.

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
	model, err := chip.ParseModel(req.Model)
	if err != nil {
		return api.Estimate{}, err
	}
	spec := chip.SpecFor(model)
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
	place, err := sim.ParsePlacement(req.Placement)
	if err != nil {
		return api.Estimate{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
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

	out := api.Estimate{Model: model.Name(), Search: search}
	err = f.withEstimator(spec, model.Name(), node, sm, func(est *surrogate.Estimator) error {
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
// EstimateSet per branch over the snapshot's remaining work, a few
// microseconds for four branches (docs/PERFORMANCE.md §7).
func (f *Fleet) whatIfFast(id string, st *snapshot.SessionState, specs []branchSpec, req api.WhatIfRequest) (api.WhatIfReport, error) {
	report := api.WhatIfReport{
		Session:    id,
		SnapshotID: req.SnapshotID,
		BaseNow:    float64(st.Machine.Ticks) * st.Machine.Tick,
		BaseTicks:  st.Machine.Ticks,
		Seconds:    req.Seconds,
		Source:     whatIfSurrogate,
		Branches:   branchReports(st, specs),
	}
	if err := f.estimateBranches(st, specs, req.Seconds, req.UntilIdle, report.Branches); err != nil {
		return api.WhatIfReport{}, err
	}
	f.mSurQueries.Add(int64(len(specs)))
	fillBests(&report)
	return report, nil
}

// estimateBranches fills out (headed by branchReports) with the
// surrogate's answer for every branch over the snapshot's remaining work.
func (f *Fleet) estimateBranches(st *snapshot.SessionState, specs []branchSpec, seconds float64, untilIdle bool, out []api.WhatIfBranch) error {
	model, err := chip.ParseModel(st.Model)
	if err != nil {
		return err
	}
	procs, err := surrogateProcs(st)
	if err != nil {
		return err
	}
	baseNow := float64(st.Machine.Ticks) * st.Machine.Tick
	return f.withEstimator(chip.SpecFor(model), model.Name(), 0, surrogate.CONS, func(est *surrogate.Estimator) error {
		for i, sp := range specs {
			b := &out[i]
			cfg, err := experiments.ParseSystemConfig(b.Policy)
			if err != nil {
				return err
			}
			bs := surrogate.BranchSpec{Config: cfg, PowerCapW: sp.capW}
			if sp.place != nil {
				bs.Placement, bs.HasPlacement = *sp.place, true
			}
			se := est.EstimateSet(procs, bs, seconds, untilIdle)
			b.Seconds = se.Seconds
			b.Now = baseNow + se.Seconds
			b.EnergyJ = se.EnergyJ
			b.AvgPowerW = se.AvgPowerW
			b.Completed, b.Running, b.Pending = se.Completed, se.Running, se.Pending
			b.MakespanS = se.MakespanS
			b.P50RuntimeS, b.P99RuntimeS = se.P50RuntimeS, se.P99RuntimeS
			b.VoltageMV = int(se.VoltageMV)
		}
		return nil
	})
}

// publishDrift is the surrogate drift canary of a finished simulated
// what-if: it answers the same branches from the surrogate and stores the
// worst relative energy error in avfs_surrogate_refine_rel_err. It reads
// the report without changing it, counts no surrogate query, skips on a
// surrogate error, and leaves the gauge alone when no branch was
// simulated to the end (a cancelled or rejected what-if): a 0 there would
// read as "no drift".
func (f *Fleet) publishDrift(st *snapshot.SessionState, specs []branchSpec, seconds float64, untilIdle bool, simulated []api.WhatIfBranch) {
	est := branchReports(st, specs)
	if f.estimateBranches(st, specs, seconds, untilIdle, est) != nil {
		return
	}
	if worst, ok := surrogateRelErr(est, simulated); ok {
		f.surDriftErr.Store(math.Float64bits(worst))
	}
}

// surrogateRelErr is the largest relative energy error of the surrogate
// branches est against the simulated ones over the branches the simulator
// finished with energy spent; ok is false when there were none.
func surrogateRelErr(est, simulated []api.WhatIfBranch) (worst float64, ok bool) {
	for i := range simulated {
		r := &simulated[i]
		if r.Error != nil || r.EnergyJ <= 0 {
			continue
		}
		ok = true
		if e := math.Abs(est[i].EnergyJ-r.EnergyJ) / r.EnergyJ; e > worst {
			worst = e
		}
	}
	return worst, ok
}
