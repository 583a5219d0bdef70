package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/experiments"
	"avfs/internal/ringbuf"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/telemetry"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

// session is one fleet tenant: a simulated machine plus both control
// stacks (the Linux-like baseline and the paper's daemon), of which
// exactly one is enabled at a time according to the selected policy.
//
// session is the single-writer actor of the concurrency model: every
// field below mu is touched only while holding it. Long runs release and
// re-take the lock between chunks of simulated time (see run), so reads
// and submits interleave with an in-flight run.
type session struct {
	id      string
	model   string
	node    string // hosting node's name ("" single-node); immutable
	created time.Time

	// ctx is cancelled when the session is deleted (or the fleet is
	// force-closed); async jobs derive from it, so deletion aborts them.
	ctx    context.Context
	cancel context.CancelFunc

	// reg/tracer are this session's private telemetry: per-session
	// registries keep metric names collision-free across tenants.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	// trace is the decision ring /trace serves, of typed records rendered
	// on read. It has its own lock, so reads never wait on a running chunk.
	trace *ringbuf.Ring[telemetry.Record]

	// Observability plane (all nil when the fleet runs with NoTrace):
	// spans is the session's bounded span ring; reqSLO/advSLO track
	// request- and advance-chunk latency for the /slo surface;
	// hLockWait/hLockHold split the actor mailbox into queue-wait
	// (acquiring the actor lock) vs. hold-time (simulating under it).
	spans     *telemetry.SpanRing
	reqSLO    *telemetry.SLOTracker
	advSLO    *telemetry.SLOTracker
	hLockWait *telemetry.Histogram
	hLockHold *telemetry.Histogram

	mu        sync.Mutex
	m         *sim.Machine
	stack     *experiments.Stack
	ttl       time.Duration
	lastTouch time.Time
	// jobs holds every async run ever admitted for the session (they are
	// few and tiny; reaping the session drops them all).
	jobs []*job
	// activeJobs counts admitted-but-unfinished runs (sync and async), so
	// the TTL reaper never deletes a session that is still computing.
	activeJobs int
	// migrating is set between capturing the session's state for a
	// drain-to-peer move and deleting the local copy: mutations (submit,
	// run, policy) are refused with ErrConflict in that window so nothing
	// lands between the shipped snapshot and the deletion. Cleared if the
	// ship fails.
	migrating bool
}

// job is the handle of one asynchronous time advance.
type job struct {
	id        string
	seconds   float64
	untilIdle bool
	status    string // api.JobQueued/Running/Done/Failed/Canceled
	result    api.RunResult
	err       error
	cancel    context.CancelFunc
	done      chan struct{}
}

// traceCap bounds the per-session decision ring. A full hour of the
// Optimal daemon on the paper's workload emits a few thousand decisions;
// the ring holds the recent window and reports how much it dropped.
const traceCap = 4096

// sessionHistory is how many finished processes and voltage emergencies
// a session's machine retains (see sim.Machine.SetHistoryLimit), so
// snapshots, what-ifs, forks and migrations cost O(live), not O(everything
// ever run). The session's counts stay exact.
const sessionHistory = 64

// obsConfig carries the fleet's observability settings into a session
// (see Fleet.sessionWiring).
type obsConfig struct {
	enabled bool
	// node is the fleet's Config.NodeName, stamped on the session.
	node string
}

// runMeta is the correlation identity a run carries from the HTTP edge
// into the actor: the request ID, the span to parent under, and (async)
// the job handle. The zero value means "untraced".
type runMeta struct {
	request string
	parent  int64
	job     string
}

// newSession builds a machine under the requested policy. Caller supplies
// the fleet-derived context and defaults.
func newSession(parent context.Context, id string, req api.CreateSessionRequest,
	defaultTTL time.Duration, now time.Time, obs obsConfig) (*session, error) {

	model, err := chip.ParseModel(req.Model)
	if err != nil {
		return nil, err
	}
	cfg, err := experiments.ParseSystemConfig(req.Policy)
	if err != nil {
		return nil, err
	}
	if req.TickSeconds < 0 || req.PollSeconds < 0 || req.TTLSeconds < 0 {
		return nil, fmt.Errorf("%w: negative duration", ErrInvalidRequest)
	}
	m := sim.New(chip.SpecFor(model))
	if req.TickSeconds != 0 {
		if err := sim.CheckTick(req.TickSeconds); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		m.Tick = req.TickSeconds
	}
	return assembleSession(parent, id, req.TTLSeconds, defaultTTL, now, obs,
		func(reg *telemetry.Registry, tr *telemetry.Tracer) (*experiments.Stack, error) {
			return experiments.NewStack(m, cfg, req.PollSeconds, reg, tr)
		})
}

// restoreSession rebuilds a session from a snapshot: the machine and its
// control stack with the captured controller state written over it (see
// experiments.RestoreStack, which also rejects a stack that contradicts
// the snapshot's policy label).
func restoreSession(parent context.Context, id string, st *snapshot.SessionState,
	ttlSeconds float64, defaultTTL time.Duration, now time.Time, obs obsConfig) (*session, error) {

	if ttlSeconds < 0 {
		return nil, fmt.Errorf("%w: negative duration", ErrInvalidRequest)
	}
	return assembleSession(parent, id, ttlSeconds, defaultTTL, now, obs,
		func(reg *telemetry.Registry, tr *telemetry.Tracer) (*experiments.Stack, error) {
			return experiments.RestoreStack(st, reg, tr)
		})
}

// assembleSession builds a session around the control stack that build
// wires to its private telemetry (the stack attaches the machine's
// telemetry hooks before its controllers, so hooks fire in one order for
// every session), then adds the observability plane and bounds the
// machine's history. A stack that does not build is an invalid request.
func assembleSession(parent context.Context, id string, ttlSeconds float64,
	defaultTTL time.Duration, now time.Time, obs obsConfig,
	build func(*telemetry.Registry, *telemetry.Tracer) (*experiments.Stack, error)) (*session, error) {

	reg, tracer := telemetry.NewRegistry(), telemetry.NewTracer()
	trace := ringbuf.New[telemetry.Record](traceCap)
	tracer.Subscribe(trace.Append)
	stack, err := build(reg, tracer)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	ctx, cancel := context.WithCancel(parent)
	s := &session{
		id:        id,
		model:     stack.M.Spec.Model.Name(),
		node:      obs.node,
		created:   now,
		ctx:       ctx,
		cancel:    cancel,
		reg:       reg,
		tracer:    tracer,
		trace:     trace,
		m:         stack.M,
		stack:     stack,
		ttl:       defaultTTL,
		lastTouch: now,
	}
	if ttlSeconds > 0 {
		s.ttl = time.Duration(ttlSeconds * float64(time.Second))
	}
	if obs.enabled {
		s.spans = telemetry.NewSpanRing(telemetry.DefaultSpanCap)
		s.reqSLO = telemetry.NewSLOTracker(telemetry.DefaultSLOWindow)
		s.advSLO = telemetry.NewSLOTracker(telemetry.DefaultSLOWindow)
		lockBounds := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
		s.hLockWait = s.reg.Histogram("avfs_session_lock_wait_seconds",
			"Actor mailbox queue-wait: time spent acquiring the session lock per run chunk.", lockBounds)
		s.hLockHold = s.reg.Histogram("avfs_session_lock_hold_seconds",
			"Actor hold-time: time the session lock was held per run chunk.", lockBounds)
	}
	s.m.SetHistoryLimit(sessionHistory)
	return s, nil
}

// captureStateLocked serializes the session's full (machine, daemon,
// baseline, power cap) state. mu must be held. It fails with ErrConflict
// while the daemon has a staged fail-safe transition in flight (the
// queued phases are closures and cannot be serialized); callers should
// retry after at most 3*TransitionTicks ticks.
func (s *session) captureStateLocked() (*snapshot.SessionState, error) {
	st := &snapshot.SessionState{Model: s.model, Machine: s.m.CaptureState()}
	if err := s.stack.Capture(st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConflict, err)
	}
	return st, nil
}

// setPolicy flips a live session between the Table IV configurations
// and/or retunes its power cap. A request with PowerCapW set and Policy
// "" is cap-only: the active policy is left alone (ParseSystemConfig
// would otherwise read "" as the optimal default).
func (s *session) setPolicy(req api.PolicyRequest, now time.Time) error {
	flip := req.Policy != "" || req.PowerCapW == nil
	var cfg experiments.SystemConfig
	if flip {
		var err error
		if cfg, err = experiments.ParseSystemConfig(req.Policy); err != nil {
			return err
		}
	}
	if req.PowerCapW != nil && *req.PowerCapW < 0 {
		return fmt.Errorf("%w: power_cap_watts must be >= 0", ErrInvalidRequest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastTouch = now
	if err := s.writableLocked(); err != nil {
		return err
	}
	if flip {
		if err := s.stack.Apply(cfg); err != nil {
			return fmt.Errorf("%w: %v", ErrConflict, err)
		}
	}
	if req.PowerCapW != nil {
		s.stack.SetPowerCap(*req.PowerCapW)
	}
	return nil
}

// submit queues a program on the machine. It takes effect immediately when
// the session is idle, or at the next chunk boundary of an in-flight run.
func (s *session) submit(req api.SubmitRequest, now time.Time) (api.Process, error) {
	b, err := workload.ByName(req.Benchmark)
	if err != nil {
		return api.Process{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastTouch = now
	if err := s.writableLocked(); err != nil {
		return api.Process{}, err
	}
	p, err := s.m.Submit(b, req.Threads)
	if err != nil {
		return api.Process{}, err
	}
	return s.wireProcessLocked(p), nil
}

// characterizeCell validates a characterize request against the session's
// chip and resolves it to the (characterizer, configuration) identity the
// fleet's store is keyed on, plus the identity half of the wire response.
// It touches no mutable session state: the chip spec is immutable and the
// characterization runs on a model copy, never on the live machine.
func (s *session) characterizeCell(req api.CharacterizeRequest) (*vmin.Characterizer, *vmin.Config, api.Characterization, error) {
	fail := func(err error) (*vmin.Characterizer, *vmin.Config, api.Characterization, error) {
		return nil, nil, api.Characterization{}, err
	}
	spec := s.m.Spec
	freq := spec.MaxFreq
	if req.FreqMHz != 0 {
		freq = chip.MHz(req.FreqMHz)
	}
	if freq <= 0 || freq > spec.MaxFreq {
		return fail(fmt.Errorf("%w: freq_mhz %d outside (0, %d]",
			ErrInvalidRequest, req.FreqMHz, int(spec.MaxFreq)))
	}
	threads := req.Threads
	if threads == 0 {
		threads = spec.Cores
	}
	place, err := sim.ParsePlacement(req.Placement)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrInvalidRequest, err))
	}
	cores, err := sim.CoresFor(spec, place, threads)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrInvalidRequest, err))
	}
	if req.Trials < 0 {
		return fail(fmt.Errorf("%w: trials must be >= 0, got %d", ErrInvalidRequest, req.Trials))
	}
	cfg := &vmin.Config{Spec: spec, FreqClass: clock.ClassOf(spec, freq), Cores: cores}
	if req.Benchmark != "" {
		b, err := workload.ByName(req.Benchmark)
		if err != nil {
			return fail(err)
		}
		cfg.Bench = b
	}
	ch := &vmin.Characterizer{Salt: req.Salt, SafeTrials: req.Trials, UnsafeTrials: req.Trials}
	return ch, cfg, api.Characterization{
		Model:     s.model,
		FreqMHz:   int(freq),
		Threads:   threads,
		Placement: place.String(),
		Benchmark: req.Benchmark,
	}, nil
}

// writableLocked refuses every mutation (submit, run, policy, power
// cap) of a session that is migrating to a peer. mu must be held.
func (s *session) writableLocked() error {
	if s.migrating {
		return fmt.Errorf("%w: session migrating to a peer", ErrConflict)
	}
	return nil
}

// refuseRunLocked reports why a run of seconds cannot be admitted now:
// the session is migrating, or the run would take its tick counter past
// sim.MaxTicks. mu must be held.
func (s *session) refuseRunLocked(seconds float64) error {
	if err := s.writableLocked(); err != nil {
		return err
	}
	if err := sim.CheckAdvance(s.m.Ticks(), s.m.Tick, seconds); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return nil
}

// runMetaFrom extracts the request's correlation identity from ctx. When
// the session's tracing plane is disabled it returns the zero meta, so
// every downstream span call is a nil no-op.
func (s *session) runMetaFrom(ctx context.Context) runMeta {
	if s.spans == nil {
		return runMeta{}
	}
	if m := metaFrom(ctx); m != nil {
		return runMeta{request: m.id, parent: m.root}
	}
	return runMeta{}
}

// queueSpan records the actor-mailbox wait of one run: the gap between
// pool admission and a worker picking the job up.
func (s *session) queueSpan(admitted time.Time, rm runMeta) {
	if s.spans == nil {
		return
	}
	s.spans.Append(telemetry.Span{
		Parent:     rm.parent,
		Request:    rm.request,
		Session:    s.id,
		Job:        rm.job,
		Name:       "actor.queue",
		StartNs:    s.spans.Stamp(admitted),
		DurationNs: time.Since(admitted).Nanoseconds(),
	})
}

// startJobSpan opens the lifecycle span of an async job and reparents
// rm under it, so the runner.cell span nests inside the job.
func (s *session) startJobSpan(jid string, rm *runMeta) *telemetry.SpanHandle {
	rm.job = jid
	h := s.spans.Start("job", rm.parent, rm.request)
	if h == nil {
		return nil
	}
	h.SetSession(s.id)
	h.SetJob(jid)
	rm.parent = h.ID()
	return h
}

// chunkSpanBudget caps per-chunk "sim.advance" spans per run: beyond it
// the remaining chunks collapse into one aggregate span, so a week-long
// advance cannot flood the ring (or pay per-chunk span cost forever).
const chunkSpanBudget = 64

// runChunked advances the machine by seconds of simulated time (or until
// idle within that budget), holding the lock one chunk at a time so other
// requests interleave. ctx aborts between tick batches. rm carries the
// request's correlation identity; the run emits one "runner.cell" span
// with per-chunk "sim.advance" children (budgeted) and feeds the
// advance-latency SLO and the lock wait/hold histograms.
func (s *session) runChunked(ctx context.Context, seconds float64, untilIdle bool, clk func() time.Time, rm runMeta) (api.RunResult, error) {
	cell := s.spans.Start("runner.cell", rm.parent, rm.request)
	cell.SetSession(s.id)
	cell.SetJob(rm.job)
	var (
		chunkSpans int
		aggStart   time.Time // first chunk past the budget
		aggTicks   uint64
		aggChunks  int
	)
	var runErr error
	remaining := seconds
	for remaining > 1e-9 {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		step := runChunk
		if step > remaining {
			step = remaining
		}
		lockStart := time.Now()
		s.mu.Lock()
		holdStart := time.Now()
		if s.hLockWait != nil {
			s.hLockWait.Observe(holdStart.Sub(lockStart).Seconds())
		}
		if untilIdle && s.m.RunningCount() == 0 && s.m.PendingCount() == 0 {
			s.mu.Unlock()
			remaining = 0
			break
		}
		ticksBefore := s.m.Ticks()
		// An until-idle run stops at the idle instant inside the chunk,
		// where a what-if branch or a campaign cell stops.
		err := advanceMachine(ctx, s.m, step, untilIdle)
		ticks := s.m.Ticks() - ticksBefore
		touched := clk()
		s.lastTouch = touched
		s.mu.Unlock()
		held := time.Since(holdStart)
		if s.hLockHold != nil {
			s.hLockHold.Observe(held.Seconds())
		}
		s.advSLO.Observe(held, err != nil, touched)
		cell.AddTicks(ticks)
		if s.spans != nil {
			if chunkSpans < chunkSpanBudget {
				chunkSpans++
				sp := telemetry.Span{
					Parent: cell.ID(), Request: rm.request, Session: s.id, Job: rm.job,
					Name: "sim.advance", StartNs: s.spans.Stamp(holdStart),
					DurationNs: held.Nanoseconds(), Ticks: ticks,
				}
				if err != nil {
					sp.Status = "error"
					sp.Detail = err.Error()
				}
				s.spans.Append(sp)
			} else {
				if aggChunks == 0 {
					aggStart = holdStart
				}
				aggChunks++
				aggTicks += ticks
			}
		}
		if err != nil {
			runErr = err
			break
		}
		remaining -= step
	}
	if aggChunks > 0 {
		s.spans.Append(telemetry.Span{
			Parent: cell.ID(), Request: rm.request, Session: s.id, Job: rm.job,
			Name: "sim.advance", StartNs: s.spans.Stamp(aggStart),
			DurationNs: time.Since(aggStart).Nanoseconds(), Ticks: aggTicks,
			Detail: fmt.Sprintf("aggregated %d chunks past the %d-span budget", aggChunks, chunkSpanBudget),
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if runErr == nil && untilIdle && (s.m.RunningCount() > 0 || s.m.PendingCount() > 0) {
		runErr = fmt.Errorf("%w after %.0fs (running=%d pending=%d)",
			sim.ErrNotIdle, seconds, s.m.RunningCount(), s.m.PendingCount())
	}
	if runErr != nil {
		status := "error"
		if ctx.Err() != nil {
			status = "canceled"
		}
		cell.SetStatus(status, runErr.Error())
	}
	cell.End()
	return s.runResultLocked(), runErr
}

// runResultLocked snapshots the run read surface. mu must be held.
func (s *session) runResultLocked() api.RunResult {
	return api.RunResult{
		Now:         s.m.Now(),
		Ticks:       s.m.Ticks(),
		EnergyJ:     s.m.Meter.Energy(),
		Emergencies: s.m.EmergencyCount(),
	}
}

// snapshot builds the session's public state.
func (s *session) snapshot(now time.Time) api.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	state := api.SessionIdle
	if s.activeJobs > 0 {
		state = api.SessionBusy
	}
	return api.Session{
		ID:             s.id,
		Model:          s.model,
		Policy:         s.stack.Config.Name(),
		State:          state,
		Node:           s.node,
		PowerCapW:      s.stack.PowerCapW(),
		Now:            s.m.Now(),
		Ticks:          s.m.Ticks(),
		Running:        s.m.RunningCount(),
		Pending:        s.m.PendingCount(),
		Done:           s.m.FinishedCount(),
		VoltageMV:      int(s.m.Chip.Voltage()),
		RequiredVminMV: int(s.m.RequiredSafeVmin()),
		EnergyJ:        s.m.Meter.Energy(),
		AvgPowerW:      s.m.Meter.AveragePower(),
		PeakPowerW:     s.m.Meter.Peak(),
		Emergencies:    s.m.EmergencyCount(),
		UtilizedPMDs:   s.m.UtilizedPMDCount(),
		IdleSeconds:    now.Sub(s.lastTouch).Seconds(),
	}
}

// energy builds the meter/Vmin read surface with the component breakdown.
func (s *session) energy() api.Energy {
	s.mu.Lock()
	defer s.mu.Unlock()
	bd := s.m.EnergyBreakdown()
	return api.Energy{
		Seconds:        s.m.Meter.Seconds(),
		EnergyJ:        s.m.Meter.Energy(),
		AvgPowerW:      s.m.Meter.AveragePower(),
		PeakPowerW:     s.m.Meter.Peak(),
		VoltageMV:      int(s.m.Chip.Voltage()),
		RequiredVminMV: int(s.m.RequiredSafeVmin()),
		Emergencies:    s.m.EmergencyCount(),
		Breakdown: map[string]float64{
			"core_dynamic": bd.CoreDynamic,
			"pmd_uncore":   bd.PMDUncore,
			"l3_fabric":    bd.L3Fabric,
			"mem_ctl":      bd.MemCtl,
			"leakage":      bd.Leakage,
		},
	}
}

// processes lists the session's live processes, pending first, then the
// retained finished tail in completion order.
func (s *session) processes() api.ProcessList {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := api.ProcessList{
		Processes:       []api.Process{},
		FinishedDropped: s.m.FinishedCount() - len(s.m.Finished()),
	}
	for _, set := range [][]*sim.Process{s.m.Pending(), s.m.RunningView()} {
		for _, p := range set {
			out.Processes = append(out.Processes, s.wireProcessLocked(p))
		}
	}
	for _, r := range s.m.Finished() {
		out.Processes = append(out.Processes, api.Process{
			ID:          r.ID,
			Benchmark:   r.Bench,
			Threads:     r.Threads,
			State:       sim.Finished.String(),
			Submitted:   r.Submitted,
			CoreEnergyJ: r.CoreEnergy.J(),
			Progress:    1,
			Runtime:     r.Completed - r.Started,
		})
	}
	return out
}

// wireProcessLocked converts one live simulator process. mu must be
// held.
func (s *session) wireProcessLocked(p *sim.Process) api.Process {
	wp := api.Process{
		ID:          p.ID,
		Benchmark:   p.Bench.Name,
		Threads:     len(p.Threads),
		State:       p.State.String(),
		Submitted:   p.Submitted,
		CoreEnergyJ: p.CoreEnergy(),
	}
	for _, c := range p.Cores() {
		wp.Cores = append(wp.Cores, int(c))
	}
	var prog float64
	for _, t := range p.Threads {
		prog += t.Progress()
	}
	wp.Progress = prog / float64(len(p.Threads))
	if p.Started >= 0 {
		wp.Runtime = s.m.Now() - p.Started
	}
	return wp
}

// lookupJob finds an async handle by ID.
func (s *session) lookupJob(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.id == id {
			return j, nil
		}
	}
	return nil, fmt.Errorf("%w: %s/%s", ErrJobNotFound, s.id, id)
}

// wireJob converts one handle. mu must be held by the caller chain (it
// locks internally for safe standalone use).
func (s *session) wireJob(j *job) api.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wireJobLocked(j)
}

func (s *session) wireJobLocked(j *job) api.Job {
	wj := api.Job{
		ID:      j.id,
		Session: s.id,
		Status:  j.status,
		Seconds: j.seconds,
		Node:    s.node,
	}
	switch j.status {
	case api.JobDone:
		r := j.result
		wj.Result = &r
	case api.JobFailed, api.JobCanceled:
		if j.err != nil {
			wj.Error = wireError(j.err)
		}
		r := j.result
		wj.Result = &r
	}
	return wj
}

// jobList lists the session's async handles in admission order.
func (s *session) jobList() api.JobList {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := api.JobList{Jobs: []api.Job{}}
	for _, j := range s.jobs {
		out.Jobs = append(out.Jobs, s.wireJobLocked(j))
	}
	return out
}

// idleFor reports how long the session has been untouched, and whether a
// run is still in flight (which blocks reaping regardless of idleness).
func (s *session) idleFor(now time.Time) (idle time.Duration, busy bool, ttl time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return now.Sub(s.lastTouch), s.activeJobs > 0, s.ttl
}

// beginJob marks the start of any in-flight work (run, characterize,
// snapshot, fork, what-if) so the TTL reaper never deletes a session out
// from under it. Every beginJob must be paired with endJob.
func (s *session) beginJob() {
	s.mu.Lock()
	s.activeJobs++
	s.mu.Unlock()
}

// endJob marks the end of work opened by beginJob, refreshing the TTL
// clock so the idle countdown restarts from job completion.
func (s *session) endJob(now time.Time) {
	s.mu.Lock()
	s.activeJobs--
	s.lastTouch = now
	s.mu.Unlock()
}
