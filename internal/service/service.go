package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"avfs/api"
	"avfs/internal/experiments"
	"avfs/internal/experiments/runner"
	"avfs/internal/snapshot"
	"avfs/internal/surrogate"
	"avfs/internal/telemetry"
	"avfs/internal/telemetry/export"
	"avfs/internal/vmin/store"
)

// Config tunes a Fleet. The zero value selects production defaults.
type Config struct {
	// MaxSessions caps live sessions (default 256). Creation beyond it
	// fails with ErrFleetFull (429).
	MaxSessions int
	// SessionTTL reaps sessions idle for this long with no run in flight
	// (default 15 minutes; per-session override via the create request).
	SessionTTL time.Duration
	// Workers bounds concurrently executing runs across all sessions
	// (default GOMAXPROCS); Queue bounds admitted-but-waiting runs
	// (default 4x workers). A full queue is the ErrBusy backpressure path.
	Workers int
	Queue   int
	// RunChunk is how much simulated time a run advances per lock hold
	// (default 1 s): the granularity at which reads, submits and policy
	// flips interleave with an in-flight run.
	RunChunk float64
	// SnapshotDir enables the on-disk tier of the fleet's session-snapshot
	// store: snapshots persist there across server restarts, so a fork can
	// resolve a snapshot id taken by a previous process. "" (default) keeps
	// snapshots in-process only (see internal/snapshot).
	SnapshotDir string
	// Clock substitutes wall time in tests (default time.Now).
	Clock func() time.Time
	// ReapEvery is the background reaper period (default 5 s; <0 disables
	// the goroutine — tests drive ReapNow directly).
	ReapEvery time.Duration
	// NodeName names this fleet node in a cluster: it prefixes locally
	// minted session IDs (so IDs are unique fleet-wide), is stamped on
	// every session/job as the `node` field and is echoed in the
	// X-AVFS-Node response header. "" (default) is the single-node mode.
	NodeName string

	// AccessLog receives one JSONL record per HTTP request (nil disables).
	AccessLog io.Writer
	// SlowLog receives a JSONL record for requests slower than SlowRequest
	// (nil disables; default threshold 1 s).
	SlowLog io.Writer
	// SlowRequest is the slow-request log threshold (default 1 s).
	SlowRequest time.Duration
	// SLOWindow is the rolling window of the /slo surfaces (default
	// telemetry.DefaultSLOWindow).
	SLOWindow time.Duration
	// NoTrace disables the span/SLO layer entirely — the tracing-off
	// baseline of the overhead gate. Access and slow logs still work.
	NoTrace bool
}

// withDefaults resolves the zero value.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.RunChunk <= 0 {
		c.RunChunk = 1.0
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.ReapEvery == 0 {
		c.ReapEvery = 5 * time.Second
	}
	if c.SlowRequest <= 0 {
		c.SlowRequest = time.Second
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = telemetry.DefaultSLOWindow
	}
	return c
}

// Fleet is the control plane: session registry, bounded run pool, TTL
// reaper and drain choreography. Construct with New, serve with Handler
// (http.go), stop with Drain then Close.
type Fleet struct {
	cfg  Config
	pool *runner.Pool
	reg  *telemetry.Registry
	// store memoizes characterization datasets process-wide: one instance
	// across every session, so tenants share cells and concurrent
	// identical requests collapse onto one computation.
	store *store.Store
	// snaps holds content-addressed session snapshots — the state behind
	// the fork and what-if endpoints.
	snaps *snapshot.Store
	// surModels caches fitted surrogate models (the instant-estimate
	// tier) in memory, shared by every session. estimators
	// holds the lazily built per-(chip, tech node, roadmap) query engines
	// (see estimate.go), each behind its own lock.
	surModels  *surrogate.Store
	estMu      sync.Mutex
	estimators map[string]*estimatorEntry
	// batchTicks accumulates the branch-ticks of every simulated what-if
	// for the /metrics counter.
	batchTicks atomic.Uint64

	// baseCtx parents every session context; Close cancels it, aborting
	// whatever Drain left behind.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	reapStop   chan struct{}
	reapDone   chan struct{}

	mu       sync.Mutex
	sessions map[string]*session
	nextSess uint64
	nextJob  uint64
	nextReq  uint64
	draining bool
	closed   bool
	// redirect is the cluster router's base URL; when set, a request for
	// a session this node does not host answers 307 to the router instead
	// of 404 (the wrong-node redirect contract). Set by the node agent.
	redirect string

	// Fleet-level telemetry (the /metrics surface).
	mSessions *telemetry.Counter
	mReaped   *telemetry.Counter
	mRuns     *telemetry.Counter
	mRejected *telemetry.Counter
	// mHTTP[c] counts requests answered with a cxx status; registered here
	// once so Handler stays idempotent.
	mHTTP [6]*telemetry.Counter
	// Surrogate-tier telemetry: answers served from the closed-form
	// engine, and (as float64 bits) the last simulated what-if's worst
	// surrogate-vs-simulator relative energy error.
	mSurQueries *telemetry.Counter
	surDriftErr atomic.Uint64

	// reqSLO tracks fleet-wide request latency (nil when NoTrace).
	reqSLO *telemetry.SLOTracker
	// hPoolWait/hPoolRun observe the worker pool's queue-wait and
	// run-duration through runner.Hooks.
	hPoolWait *telemetry.Histogram
	hPoolRun  *telemetry.Histogram
	// rtStats caches runtime.ReadMemStats for the Go runtime gauges: one
	// stop-the-world read serves all of them per scrape.
	rtStats memStatsCache

	// logMu serializes the access/slow log writers.
	logMu sync.Mutex
}

// memStatsCache amortizes runtime.ReadMemStats across the runtime gauges
// of one Gather (and across scrapes closer together than its TTL).
type memStatsCache struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

// read returns cached stats no older than one second.
func (c *memStatsCache) read() *runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); now.Sub(c.at) > time.Second {
		runtime.ReadMemStats(&c.ms)
		c.at = now
	}
	return &c.ms
}

// New starts a fleet.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:        cfg,
		pool:       runner.NewPool(cfg.Workers, cfg.Queue),
		reg:        telemetry.NewRegistry(),
		store:      store.New(""),
		snaps:      snapshot.NewStore(cfg.SnapshotDir),
		surModels:  surrogate.NewStore(""),
		estimators: make(map[string]*estimatorEntry),
		sessions:   make(map[string]*session),
		reapStop:   make(chan struct{}),
		reapDone:   make(chan struct{}),
	}
	f.baseCtx, f.cancelBase = context.WithCancel(context.Background())
	f.store.Instrument(f.reg)
	f.snaps.Instrument(f.reg)
	f.mSessions = f.reg.Counter("avfs_fleet_sessions_created_total", "Sessions created.")
	f.mReaped = f.reg.Counter("avfs_fleet_sessions_reaped_total", "Sessions deleted by the TTL reaper.")
	f.mRuns = f.reg.Counter("avfs_fleet_runs_total", "Time-advance operations admitted (sync and async).")
	f.mRejected = f.reg.Counter("avfs_fleet_runs_rejected_total", "Runs rejected by pool backpressure.")
	f.mSurQueries = f.reg.Counter("avfs_surrogate_queries_total",
		"Closed-form surrogate answers served (GET /v1/estimate and fast what-if branches).")
	f.reg.Gauge("avfs_surrogate_refine_rel_err",
		"Worst surrogate-vs-simulator relative energy error over the branches of the last sync simulated what-if.", func() float64 {
			return math.Float64frombits(f.surDriftErr.Load())
		})
	for i := 1; i <= 5; i++ {
		f.mHTTP[i] = f.reg.Counter("avfs_http_requests_total",
			"HTTP requests by status class.", telemetry.Labels("class", fmt.Sprintf("%dxx", i))...)
	}
	f.reg.Gauge("avfs_fleet_sessions_active", "Live sessions.", func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(len(f.sessions))
	})
	f.reg.Gauge("avfs_fleet_runs_inflight", "Admitted runs not yet completed.", func() float64 {
		return float64(f.pool.Pending())
	})

	// Go runtime health (goroutines, heap, GC) — the per-node signals a
	// fleet coordinator aggregates.
	f.reg.Gauge("go_goroutines", "Live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	f.reg.Gauge("go_heap_alloc_bytes", "Heap bytes allocated and in use.", func() float64 {
		return float64(f.rtStats.read().HeapAlloc)
	})
	f.reg.CounterFunc("go_gc_cycles_total", "Completed GC cycles.", func() float64 {
		return float64(f.rtStats.read().NumGC)
	})
	f.reg.CounterFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", func() float64 {
		return float64(f.rtStats.read().PauseTotalNs) / 1e9
	})

	// Worker-pool scheduling behaviour, observed through runner.Hooks.
	poolBounds := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
	f.hPoolWait = f.reg.Histogram("avfs_pool_queue_wait_seconds",
		"Time runs sat admitted before a worker picked them up.", poolBounds)
	f.hPoolRun = f.reg.Histogram("avfs_pool_run_seconds",
		"Time a worker was held by one run.", poolBounds)
	f.pool.SetHooks(&runner.Hooks{
		QueueWait: func(d time.Duration) { f.hPoolWait.Observe(d.Seconds()) },
		JobDone:   func(d time.Duration) { f.hPoolRun.Observe(d.Seconds()) },
	})

	// What-if work. The function reads a lock-free atomic, so the scrape
	// cost stays within the telemetry overhead budget.
	f.reg.CounterFunc("avfs_sim_batch_ticks_total",
		"Branch-ticks committed by simulated what-ifs.", func() float64 {
			return float64(f.batchTicks.Load())
		})

	if !cfg.NoTrace {
		f.reqSLO = telemetry.NewSLOTracker(cfg.SLOWindow)
		f.reg.Gauge("avfs_http_request_seconds",
			"Fleet-wide rolling-window request latency.", func() float64 {
				snap, _, _ := f.reqSLO.Windowed(f.cfg.Clock())
				return snap.Quantile(0.99) / 1e9
			}, telemetry.Labels("quantile", "0.99")...)
	}
	if cfg.ReapEvery > 0 {
		go f.reapLoop()
	} else {
		close(f.reapDone)
	}
	return f
}

// Registry exposes the fleet-level metric registry (the /metrics surface).
func (f *Fleet) Registry() *telemetry.Registry { return f.reg }

// sessionWiring assembles the fleet-derived settings a new or restored
// session is built with: the observability plane and the node name.
func (f *Fleet) sessionWiring() obsConfig {
	return obsConfig{
		enabled: !f.cfg.NoTrace, window: f.cfg.SLOWindow,
		node: f.cfg.NodeName,
	}
}

// reapLoop ticks the TTL reaper until Close.
func (f *Fleet) reapLoop() {
	defer close(f.reapDone)
	t := time.NewTicker(f.cfg.ReapEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			f.ReapNow()
		case <-f.reapStop:
			return
		}
	}
}

// ReapNow deletes every session idle past its TTL with no run in flight,
// returning how many it removed.
func (f *Fleet) ReapNow() int {
	now := f.cfg.Clock()
	f.mu.Lock()
	var doomed []*session
	for id, s := range f.sessions {
		if idle, busy, ttl := s.idleFor(now); !busy && idle >= ttl {
			doomed = append(doomed, s)
			delete(f.sessions, id)
		}
	}
	f.mu.Unlock()
	for _, s := range doomed {
		s.cancel()
		f.mReaped.Inc()
	}
	return len(doomed)
}

// mintSessionID reserves the next locally minted session identifier.
// NodeName-prefixed IDs keep them unique fleet-wide.
func (f *Fleet) mintSessionID() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextSess++
	if f.cfg.NodeName != "" {
		return fmt.Sprintf("s-%s-%06d", f.cfg.NodeName, f.nextSess)
	}
	return fmt.Sprintf("s-%06d", f.nextSess)
}

// validSessionID accepts router-minted identifiers: short, path-safe,
// no whitespace.
func validSessionID(id string) error {
	if id == "" || len(id) > 120 {
		return fmt.Errorf("%w: session id must be 1-120 characters", ErrInvalidRequest)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("%w: session id %q contains %q", ErrInvalidRequest, id, c)
		}
	}
	return nil
}

// Create opens a session. A pre-assigned req.ID (minted by the cluster
// router so placement is a pure function of the ID) is honoured after
// validation; duplicates fail with ErrConflict.
func (f *Fleet) Create(req api.CreateSessionRequest) (api.Session, error) {
	now := f.cfg.Clock()
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return api.Session{}, fmt.Errorf("%w: not accepting sessions", ErrDraining)
	}
	if len(f.sessions) >= f.cfg.MaxSessions {
		f.mu.Unlock()
		return api.Session{}, fmt.Errorf("%w: %d sessions live", ErrFleetFull, len(f.sessions))
	}
	id := req.ID
	if id != "" {
		if err := validSessionID(id); err != nil {
			f.mu.Unlock()
			return api.Session{}, err
		}
		if _, dup := f.sessions[id]; dup {
			f.mu.Unlock()
			return api.Session{}, fmt.Errorf("%w: session %s already exists", ErrConflict, id)
		}
	}
	f.mu.Unlock()
	if id == "" {
		id = f.mintSessionID()
	}

	// Build outside the fleet lock (construction touches no shared state);
	// publish under it, re-checking the race windows.
	s, err := newSession(f.baseCtx, id, req, f.cfg.SessionTTL, now, f.sessionWiring())
	if err != nil {
		return api.Session{}, err
	}
	return f.publish(s, now)
}

// publish inserts a built session into the registry, re-checking the
// admission windows (drain, capacity, duplicate ID) that may have closed
// while the session was constructed outside the fleet lock.
func (f *Fleet) publish(s *session, now time.Time) (api.Session, error) {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		s.cancel()
		return api.Session{}, fmt.Errorf("%w: not accepting sessions", ErrDraining)
	}
	if len(f.sessions) >= f.cfg.MaxSessions {
		f.mu.Unlock()
		s.cancel()
		return api.Session{}, fmt.Errorf("%w: %d sessions live", ErrFleetFull, len(f.sessions))
	}
	if _, dup := f.sessions[s.id]; dup {
		f.mu.Unlock()
		s.cancel()
		return api.Session{}, fmt.Errorf("%w: session %s already exists", ErrConflict, s.id)
	}
	f.sessions[s.id] = s
	f.mu.Unlock()
	f.mSessions.Inc()
	return s.snapshot(now), nil
}

// lookup resolves a session ID.
func (f *Fleet) lookup(id string) (*session, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.sessions[id]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
}

// ListPage snapshots live sessions ordered by ID, starting strictly
// after cursor, filtered by state ("idle"/"busy") and policy, truncated
// to limit (0 = unlimited). A truncated page sets NextCursor to the last
// returned ID; passing it back resumes the listing. The cursor is
// filter-stable: it is always an ID that was actually returned, so
// filters may be varied between pages without skipping sessions.
func (f *Fleet) ListPage(cursor string, limit int, state, policy string) (api.SessionList, error) {
	if limit < 0 {
		return api.SessionList{}, fmt.Errorf("%w: limit must be >= 0", ErrInvalidRequest)
	}
	switch state {
	case "", api.SessionIdle, api.SessionBusy:
	default:
		return api.SessionList{}, fmt.Errorf("%w: state %q (want idle or busy)", ErrInvalidRequest, state)
	}
	if policy != "" {
		cfg, err := experiments.ParseSystemConfig(policy)
		if err != nil {
			return api.SessionList{}, err
		}
		policy = cfg.Name()
	}
	now := f.cfg.Clock()
	f.mu.Lock()
	all := make([]*session, 0, len(f.sessions))
	for id, s := range f.sessions {
		if id > cursor {
			all = append(all, s)
		}
	}
	f.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := api.SessionList{Sessions: make([]api.Session, 0, len(all))}
	for _, s := range all {
		ws := s.snapshot(now)
		if state != "" && ws.State != state {
			continue
		}
		if policy != "" && ws.Policy != policy {
			continue
		}
		if limit > 0 && len(out.Sessions) == limit {
			out.NextCursor = out.Sessions[limit-1].ID
			break
		}
		out.Sessions = append(out.Sessions, ws)
	}
	return out, nil
}

// Get snapshots one session.
func (f *Fleet) Get(id string) (api.Session, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.Session{}, err
	}
	return s.snapshot(f.cfg.Clock()), nil
}

// Delete removes a session, cancelling any in-flight run.
func (f *Fleet) Delete(id string) error {
	f.mu.Lock()
	s, ok := f.sessions[id]
	if ok {
		delete(f.sessions, id)
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	s.cancel()
	return nil
}

// Submit queues a program on a session.
func (f *Fleet) Submit(id string, req api.SubmitRequest) (api.Process, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.Process{}, err
	}
	return s.submit(req, f.cfg.Clock())
}

// Processes lists a session's programs.
func (f *Fleet) Processes(id string) (api.ProcessList, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.ProcessList{}, err
	}
	return s.processes(), nil
}

// Energy reads a session's meter/Vmin surface.
func (f *Fleet) Energy(id string) (api.Energy, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.Energy{}, err
	}
	return s.energy(), nil
}

// Characterize resolves one characterization cell for a session through
// the fleet's process-wide store: a cell is simulated at most once per
// (configuration, salt, trial-count, model-version) identity no matter how
// many sessions — or concurrent requests — ask for it within this
// process. The store's hit/miss counters are part of the /metrics
// surface.
func (f *Fleet) Characterize(id string, req api.CharacterizeRequest) (api.Characterization, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.Characterization{}, err
	}
	ch, cfg, out, err := s.characterizeCell(req)
	if err != nil {
		return api.Characterization{}, err
	}
	// A cold cell simulates a full characterization campaign — long enough
	// for the TTL reaper to fire mid-computation. Bracket the store call so
	// the session counts as busy and cannot be reaped under the request.
	s.beginJob()
	cz, src := f.store.Get(ch, cfg)
	s.endJob(f.cfg.Clock())
	out.SafeVminMV = int(cz.SafeVmin)
	out.SafeFound = cz.SafeFound
	out.TotalRuns = cz.TotalRuns
	out.Source = src.String()
	for _, l := range cz.Levels {
		out.Levels = append(out.Levels, api.CharacterizeLevel{
			VoltageMV: int(l.Voltage), Runs: l.Runs, Fails: l.Fails,
		})
	}
	return out, nil
}

// SetPolicy flips a live session between the Table IV configurations
// and/or retunes its power cap (see api.PolicyRequest for the combined
// semantics).
func (f *Fleet) SetPolicy(id string, req api.PolicyRequest) (api.Session, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.Session{}, err
	}
	now := f.cfg.Clock()
	if err := s.setPolicy(req, now); err != nil {
		return api.Session{}, err
	}
	return s.snapshot(now), nil
}

// TraceSince reads a session's decision ring from an absolute cursor:
// the records rendered to their wire form, the next cursor to poll from,
// and whether the cursor had fallen behind the retained window (the
// ringbuf cursor contract). It does not wait on the actor lock.
func (f *Fleet) TraceSince(id string, since int64) ([]telemetry.Decision, int64, bool, error) {
	s, err := f.lookup(id)
	if err != nil {
		return nil, 0, false, err
	}
	recs, next, truncated := s.trace.Since(since)
	out := make([]telemetry.Decision, len(recs))
	for i := range recs {
		out[i] = recs[i].Decision()
	}
	return out, next, truncated, nil
}

// Spans reads a session's span ring from an absolute cursor, with
// TraceSince's shape and contract.
func (f *Fleet) Spans(id string, since int64) ([]telemetry.Span, int64, bool, error) {
	s, err := f.lookup(id)
	if err != nil {
		return nil, 0, false, err
	}
	if s.spans == nil {
		return nil, 0, false, fmt.Errorf("%w: tracing disabled", ErrInvalidRequest)
	}
	spans, next, truncated := s.spans.Since(since)
	return spans, next, truncated, nil
}

// SLO reports a session's request- and advance-latency quantiles plus
// error rates, all-time and over the rolling window.
func (f *Fleet) SLO(id string) (api.SLO, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.SLO{}, err
	}
	if s.reqSLO == nil {
		return api.SLO{}, fmt.Errorf("%w: tracing disabled", ErrInvalidRequest)
	}
	now := f.cfg.Clock()
	out := api.SLO{Session: id, WindowSeconds: s.reqSLO.Window().Seconds()}
	out.Requests = wireQuantiles(s.reqSLO.Totals())
	out.Advance = wireQuantiles(s.advSLO.Totals())
	rs, re, _ := s.reqSLO.Windowed(now)
	out.WindowRequests = wireQuantiles(rs, re)
	as, ae, _ := s.advSLO.Windowed(now)
	out.WindowAdvance = wireQuantiles(as, ae)
	return out, nil
}

// wireQuantiles converts one latency snapshot + error count to the wire.
func wireQuantiles(snap telemetry.LatencySnapshot, errs int64) api.QuantileSet {
	q := api.QuantileSet{
		Count:       snap.Count(),
		Errors:      errs,
		MeanSeconds: snap.MeanNs() / 1e9,
		P50:         snap.Quantile(0.5) / 1e9,
		P90:         snap.Quantile(0.9) / 1e9,
		P99:         snap.Quantile(0.99) / 1e9,
		P999:        snap.Quantile(0.999) / 1e9,
	}
	if q.Count > 0 {
		q.ErrorRate = float64(errs) / float64(q.Count)
	}
	return q
}

// SessionMetrics renders one session's private metric registry in
// Prometheus text format. The session lock is held across the gather: the
// machine-wired gauges read live simulator state.
func (f *Fleet) SessionMetrics(id string, w io.Writer) error {
	s, err := f.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return export.Prometheus(w, s.reg)
}

// admitGate rejects new runs while draining.
func (f *Fleet) admitGate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining {
		return fmt.Errorf("%w: not accepting runs", ErrDraining)
	}
	return nil
}

// RunSync advances a session's simulated time on the worker pool, blocking
// until the advance completes or ctx ends. Concurrent runs on one session
// serialize on its actor lock; pool saturation fails fast with ErrBusy.
func (f *Fleet) RunSync(ctx context.Context, id string, req api.RunRequest) (api.RunResult, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.RunResult{}, err
	}
	if err := f.admitGate(); err != nil {
		return api.RunResult{}, err
	}
	s.mu.Lock()
	if err := s.refuseRunLocked(req.Seconds); err != nil {
		s.mu.Unlock()
		return api.RunResult{}, err
	}
	s.activeJobs++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.activeJobs--
		s.mu.Unlock()
	}()
	rm := s.runMetaFrom(ctx)
	admitted := time.Now()
	var res api.RunResult
	err = f.pool.Do(ctx, func(jctx context.Context) error {
		s.queueSpan(admitted, rm)
		var runErr error
		res, runErr = s.runChunked(jctx, req.Seconds, req.UntilIdle, f.cfg.RunChunk, f.cfg.Clock, rm)
		return runErr
	})
	switch {
	case err == nil:
		f.mRuns.Inc()
		return res, nil
	case errors.Is(err, ErrBusy) || errors.Is(err, runner.ErrPoolClosed):
		f.mRejected.Inc()
		return api.RunResult{}, err
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		// The caller gave up while the job was queued or running; the job
		// itself aborts at its next commit (it observes the same ctx). res
		// may still be written by the detached worker — don't read it.
		return api.RunResult{}, err
	default:
		// The job completed with an error (delivered through the pool's
		// done channel, so reading res is synchronized).
		f.mRuns.Inc()
		return res, err
	}
}

// RunAsync admits a time advance and returns a pollable handle
// immediately. The job's context derives from the session (not the
// request), so it survives the request and is cancelled by session
// deletion, CancelJob, or fleet Close — but not by graceful Drain, which
// waits for it instead. ctx only carries the request's correlation
// identity for the job's trace; it does not bound the job's lifetime.
func (f *Fleet) RunAsync(ctx context.Context, id string, req api.RunRequest) (api.Job, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.Job{}, err
	}
	if err := f.admitGate(); err != nil {
		return api.Job{}, err
	}
	if req.Seconds <= 0 {
		return api.Job{}, fmt.Errorf("%w: run seconds must be positive", ErrInvalidRequest)
	}
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
	if err := s.refuseRunLocked(req.Seconds); err != nil {
		s.mu.Unlock()
		cancel()
		return api.Job{}, err
	}
	s.jobs = append(s.jobs, j)
	s.activeJobs++
	s.mu.Unlock()

	// The job span covers the whole lifecycle — admission through
	// completion — and parents the runner.cell span; it outlives the
	// request that submitted it, keeping its request ID.
	rm := s.runMetaFrom(ctx)
	jobSpan := s.startJobSpan(jid, &rm)
	admitted := time.Now()

	doneCh, err := f.pool.Go(jctx, func(ctx context.Context) error {
		s.queueSpan(admitted, rm)
		s.mu.Lock()
		j.status = api.JobRunning
		s.mu.Unlock()
		res, runErr := s.runChunked(ctx, j.seconds, j.untilIdle, f.cfg.RunChunk, f.cfg.Clock, rm)
		s.mu.Lock()
		j.result = res
		j.err = runErr
		switch {
		case runErr == nil:
			j.status = api.JobDone
		case ctx.Err() != nil:
			j.status = api.JobCanceled
			jobSpan.SetStatus("canceled", "")
		default:
			j.status = api.JobFailed
			jobSpan.SetStatus("error", runErr.Error())
		}
		s.activeJobs--
		s.mu.Unlock()
		jobSpan.End()
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
		jobSpan.SetStatus("error", err.Error())
		jobSpan.End()
		f.mRejected.Inc()
		return api.Job{}, err
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
			jobSpan.SetStatus("canceled", "retired while queued")
			jobSpan.End()
			close(j.done)
			return
		}
		s.mu.Unlock()
	}()
	f.mRuns.Inc()
	return s.wireJob(j), nil
}

// Job polls an async handle.
func (f *Fleet) Job(id, jobID string) (api.Job, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.Job{}, err
	}
	j, err := s.lookupJob(jobID)
	if err != nil {
		return api.Job{}, err
	}
	return s.wireJob(j), nil
}

// Jobs lists a session's async handles.
func (f *Fleet) Jobs(id string) (api.JobList, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.JobList{}, err
	}
	return s.jobList(), nil
}

// CancelJob aborts an in-flight async run (no-op on finished jobs). The
// simulation stops at the next tick-batch commit; the job reports
// canceled with the state it reached.
func (f *Fleet) CancelJob(id, jobID string) (api.Job, error) {
	s, err := f.lookup(id)
	if err != nil {
		return api.Job{}, err
	}
	j, err := s.lookupJob(jobID)
	if err != nil {
		return api.Job{}, err
	}
	j.cancel()
	return s.wireJob(j), nil
}

// Draining reports whether graceful shutdown has begun.
func (f *Fleet) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// Closed reports whether Close has run. The HTTP edge fails every
// request fast with 503 once it has — including /healthz, which must
// stop reporting a dead process as live.
func (f *Fleet) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// SetRedirect points wrong-node session requests at the cluster
// router's base URL via 307 (""/default disables redirecting and such
// requests 404). The node agent calls this when it registers.
func (f *Fleet) SetRedirect(baseURL string) {
	f.mu.Lock()
	f.redirect = baseURL
	f.mu.Unlock()
}

func (f *Fleet) redirectBase() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.redirect
}

// SessionCount reports the number of live sessions.
func (f *Fleet) SessionCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sessions)
}

// SessionIDs lists live session IDs in order.
func (f *Fleet) SessionIDs() []string {
	f.mu.Lock()
	ids := make([]string, 0, len(f.sessions))
	for id := range f.sessions {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Drain begins graceful shutdown: new sessions and runs are rejected with
// ErrDraining (503 + Retry-After), while every admitted run — including
// queued async jobs — completes normally. It returns when the pool is
// empty or ctx ends.
func (f *Fleet) Drain(ctx context.Context) error {
	f.mu.Lock()
	f.draining = true
	f.mu.Unlock()
	return f.pool.Drain(ctx)
}

// Close force-stops the fleet: cancels every session context (aborting
// whatever Drain left in flight at its next tick-batch commit), stops the
// reaper and releases the pool workers. Call Drain first for graceful
// shutdown.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.draining = true
	f.closed = true
	f.mu.Unlock()
	f.cancelBase()
	select {
	case <-f.reapStop:
	default:
		close(f.reapStop)
	}
	<-f.reapDone
	f.pool.Close()
}
