package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"avfs/api"
	"avfs/client"
	"avfs/internal/service"
)

// clients is the load generator's width: two closed-loop client
// goroutines, one per CPU of the reference machine.
const clients = 2

// target is the v1 surface the workloads drive: the HTTP client during
// the measured window, an in-process *service.Fleet during the
// correctness replay.
type target interface {
	CreateSession(ctx context.Context, req api.CreateSessionRequest) (api.Session, error)
	DeleteSession(ctx context.Context, id string) error
	Session(ctx context.Context, id string) (api.Session, error)
	Submit(ctx context.Context, id string, req api.SubmitRequest) (api.Process, error)
	Processes(ctx context.Context, id string) (api.ProcessList, error)
	Energy(ctx context.Context, id string) (api.Energy, error)
	Estimate(ctx context.Context, req api.EstimateRequest) (api.Estimate, error)
	SetPolicy(ctx context.Context, id, policy string) (api.Session, error)
	Run(ctx context.Context, id string, seconds float64) (api.RunResult, error)
	Fork(ctx context.Context, id string, req api.ForkRequest) (api.Fork, error)
	WhatIf(ctx context.Context, id string, req api.WhatIfRequest) (api.WhatIfReport, error)
}

var _ target = (*client.Client)(nil)

// fleetTarget drives an in-process fleet through the same surface.
type fleetTarget struct{ f *service.Fleet }

func (t fleetTarget) CreateSession(_ context.Context, req api.CreateSessionRequest) (api.Session, error) {
	return t.f.Create(req)
}

func (t fleetTarget) DeleteSession(_ context.Context, id string) error { return t.f.Delete(id) }

func (t fleetTarget) Session(_ context.Context, id string) (api.Session, error) { return t.f.Get(id) }

func (t fleetTarget) Submit(_ context.Context, id string, req api.SubmitRequest) (api.Process, error) {
	return t.f.Submit(id, req)
}

func (t fleetTarget) Processes(_ context.Context, id string) (api.ProcessList, error) {
	return t.f.Processes(id)
}

func (t fleetTarget) Energy(_ context.Context, id string) (api.Energy, error) { return t.f.Energy(id) }

func (t fleetTarget) Estimate(_ context.Context, req api.EstimateRequest) (api.Estimate, error) {
	return t.f.Estimate(req)
}

func (t fleetTarget) SetPolicy(_ context.Context, id, policy string) (api.Session, error) {
	return t.f.SetPolicy(id, api.PolicyRequest{Policy: policy})
}

func (t fleetTarget) Run(ctx context.Context, id string, seconds float64) (api.RunResult, error) {
	return t.f.RunSync(ctx, id, api.RunRequest{Seconds: seconds})
}

func (t fleetTarget) Fork(_ context.Context, id string, req api.ForkRequest) (api.Fork, error) {
	return t.f.Fork(id, req)
}

func (t fleetTarget) WhatIf(ctx context.Context, id string, req api.WhatIfRequest) (api.WhatIfReport, error) {
	return t.f.WhatIf(ctx, id, req)
}

// routedTarget sends tenant traffic through the cluster router, except
// instant estimates: the router proxies only session routes, so
// GET /v1/estimate goes to a node directly.
type routedTarget struct {
	*client.Client
	estimates *client.Client
}

func (t routedTarget) Estimate(ctx context.Context, req api.EstimateRequest) (api.Estimate, error) {
	return t.estimates.Estimate(ctx, req)
}

// isConflict reports a 409 refusal from either side of the wire.
func isConflict(err error) bool {
	return errors.Is(err, api.ErrConflict) || errors.Is(err, service.ErrConflict)
}

// The request mix: both chip models, the four Table IV policies, NPB
// programs (multi-threaded) and SPEC programs (single-threaded).
var (
	models          = []string{"xgene2", "xgene3"}
	policies        = []string{"baseline", "safe-vmin", "placement", "optimal"}
	parallelBenches = []string{"CG", "EP", "FT", "IS", "LU", "MG"}
	serialBenches   = []string{"namd", "povray", "hmmer", "gcc", "mcf", "milc", "libquantum", "lbm"}
)

// randProc draws one valid process: a SPEC program on one thread, or an
// NPB program at a thread count the chip fits.
func randProc(rng *rand.Rand, model string) api.SubmitRequest {
	if rng.Intn(2) == 0 {
		return api.SubmitRequest{Benchmark: serialBenches[rng.Intn(len(serialBenches))], Threads: 1}
	}
	threads := []int{2, 4, 8}
	if model == "xgene3" {
		threads = []int{4, 8, 16}
	}
	return api.SubmitRequest{
		Benchmark: parallelBenches[rng.Intn(len(parallelBenches))],
		Threads:   threads[rng.Intn(len(threads))],
	}
}

// randEstimate draws one instant-estimate query.
func randEstimate(rng *rand.Rand, model string) api.EstimateRequest {
	p := randProc(rng, model)
	place := "clustered"
	if rng.Intn(2) == 0 {
		place = "spreaded"
	}
	return api.EstimateRequest{Model: model, Benchmark: p.Benchmark, Threads: p.Threads, Placement: place}
}

// flipPolicy draws a policy other than p.
func flipPolicy(rng *rand.Rand, p string) string {
	i := 0
	for k, q := range policies {
		if q == p {
			i = k
		}
	}
	return policies[(i+1+rng.Intn(len(policies)-1))%len(policies)]
}

// seeded returns an independent generator for one (seed, stream, index...)
// tuple, so a script or op draws the same inputs for the same seed
// whatever order the clients reach it in.
func seeded(seed int64, parts ...int64) *rand.Rand {
	x := splitmix(uint64(seed))
	for _, p := range parts {
		x = splitmix(x ^ uint64(p))
	}
	return rand.New(rand.NewSource(int64(x)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// script is one tenant session's lifetime in the interactive and routed
// workloads: create, submit 1-4 processes, 3-5 rounds, read the end
// state, delete.
type script struct {
	create  api.CreateSessionRequest
	submits []api.SubmitRequest
	rounds  []round
	// migrate (routed only) drain-migrates the session after round 0.
	migrate bool
}

// round is one poll-and-advance cycle: four reads (session, energy,
// processes, estimate), sometimes a policy flip, then a short run.
type round struct {
	est     api.EstimateRequest
	policy  string // "" keeps the policy
	seconds float64
}

// migrateEvery makes every Nth routed script migrate its session.
const migrateEvery = 4

// scriptPool is the number of distinct tenant scripts. Scripts drawn
// afresh for every seed made one seed's runs steadily ~10% slower than
// another's; every seed cycles the same pool instead and only orders it,
// so runs of different seeds measure the same mix. A run plays a few
// thousand scripts, dozens of cycles of a pool this size, so the cycle it
// ends inside barely shifts its mix.
const scriptPool = 64

// newScript generates script idx of a seed: entry idx mod scriptPool of
// the idx/scriptPool-th seeded shuffle of the pool.
func newScript(seed int64, idx int) script {
	perm := seeded(seed, 5, int64(idx/scriptPool)).Perm(scriptPool)
	rng := seeded(canonicalSeed, 1, int64(perm[idx%scriptPool]))
	model := models[rng.Intn(len(models))]
	sc := script{
		create:  api.CreateSessionRequest{Model: model, Policy: policies[rng.Intn(len(policies))]},
		migrate: idx%migrateEvery == migrateEvery-1,
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		sc.submits = append(sc.submits, randProc(rng, model))
	}
	for n := 3 + rng.Intn(3); n > 0; n-- {
		rd := round{est: randEstimate(rng, model), seconds: float64(2 + rng.Intn(4))}
		if rng.Intn(4) == 0 {
			rd.policy = policies[rng.Intn(len(policies))]
		}
		sc.rounds = append(sc.rounds, rd)
	}
	return sc
}

// errDeadline stops a script at the end of the measured window: the
// request is not sent and the script is not replayed.
var errDeadline = errors.New("measured window over")

// Conflict handling: a snapshot or policy flip is refused with 409 while
// the daemon's fail-safe voltage transition drains (a few ticks). The
// tenant lets 50 simulated ms pass and retries, a bounded number of times.
const (
	nudgeSeconds       = 0.05
	maxConflictRetries = 8
)

// tenant drives one client's requests against a target. The measured
// window and the correctness replay run the same tenant code, so every
// decision a script makes — how much to submit, when to retry — is made
// identically on both sides.
type tenant struct {
	tgt      target
	id       int
	rec      *recorder // nil during set-up and replay: nothing is timed
	tr       *tracer
	deadline time.Time // zero: ops are never cut
	// perRequestOps counts every request as a workload op (interactive,
	// routed); the advance workload times whole composite ops instead.
	perRequestOps bool
	seq           int64

	// migrate (routed) moves a session to the other node.
	migrate func(ctx context.Context, id, node string) error
	// probe and finish are the traced run's hooks, called between
	// requests and never inside a timed one: probe after each round's run,
	// finish before a session (or forked child) is deleted.
	probe  func(ctx context.Context, id, node string, round int, sc *script)
	finish func(ctx context.Context, id string)
}

// call runs one request, timing it into the recorder and, when tracing,
// under a fresh op ID that tags the request and its client span.
func (t *tenant) call(ctx context.Context, class string, fn func(context.Context) error) error {
	if t.rec == nil {
		return fn(ctx)
	}
	if !t.deadline.IsZero() && !time.Now().Before(t.deadline) {
		return errDeadline
	}
	var op string
	if t.tr.active() {
		t.seq++
		op = opPrefix + strconv.Itoa(t.id) + "-" + strconv.FormatInt(t.seq, 10)
		ctx = withOp(ctx, op)
	}
	start := time.Now()
	err := fn(ctx)
	d := time.Since(start)
	t.rec.observe(class, d, err)
	if t.perRequestOps && err == nil {
		t.rec.ops = append(t.rec.ops, ms(d))
	}
	if op != "" {
		t.tr.record(op, "client", class, start, d)
	}
	return err
}

// run advances a session synchronously.
func (t *tenant) run(ctx context.Context, id string, seconds float64) (api.RunResult, error) {
	var res api.RunResult
	err := t.call(ctx, classRun, func(ctx context.Context) (err error) {
		res, err = t.tgt.Run(ctx, id, seconds)
		return err
	})
	if err == nil && t.rec != nil {
		t.rec.simS += seconds
	}
	return res, err
}

// retryConflict runs a state-capturing request, nudging the session
// forward and retrying while it is refused with a conflict.
func (t *tenant) retryConflict(ctx context.Context, id, class string, fn func(context.Context) error) error {
	for attempt := 0; ; attempt++ {
		err := t.call(ctx, class, fn)
		if !isConflict(err) {
			return err
		}
		if attempt == maxConflictRetries {
			if t.rec != nil {
				t.rec.failed++
			}
			return err
		}
		if _, err := t.run(ctx, id, nudgeSeconds); err != nil {
			return err
		}
	}
}

// runScript plays one script and returns the end state it read back
// before deleting the session.
func (t *tenant) runScript(ctx context.Context, sc *script) (_ api.Session, err error) {
	var s api.Session
	if err := t.call(ctx, classWrite, func(ctx context.Context) (err error) {
		s, err = t.tgt.CreateSession(ctx, sc.create)
		return err
	}); err != nil {
		return api.Session{}, err
	}
	id, node := s.ID, s.Node
	finished := false
	defer func() {
		// A script the window cuts keeps its session: collect its spans too.
		if err != nil && !finished && t.finish != nil {
			t.finish(ctx, id)
		}
	}()
	read := func(ctx context.Context) (err error) {
		s, err = t.tgt.Session(ctx, id)
		if err == nil {
			node = s.Node
		}
		return err
	}
	for _, p := range sc.submits {
		if err := t.call(ctx, classWrite, func(ctx context.Context) error {
			_, err := t.tgt.Submit(ctx, id, p)
			return err
		}); err != nil {
			return api.Session{}, err
		}
	}
	for i, rd := range sc.rounds {
		reads := []func(context.Context) error{
			read,
			func(ctx context.Context) error { _, err := t.tgt.Energy(ctx, id); return err },
			func(ctx context.Context) error { _, err := t.tgt.Processes(ctx, id); return err },
			func(ctx context.Context) error { _, err := t.tgt.Estimate(ctx, rd.est); return err },
		}
		for _, r := range reads {
			if err := t.call(ctx, classRead, r); err != nil {
				return api.Session{}, err
			}
		}
		if rd.policy != "" {
			if err := t.retryConflict(ctx, id, classWrite, func(ctx context.Context) error {
				_, err := t.tgt.SetPolicy(ctx, id, rd.policy)
				return err
			}); err != nil {
				return api.Session{}, err
			}
		}
		if _, err := t.run(ctx, id, rd.seconds); err != nil {
			return api.Session{}, err
		}
		if t.probe != nil {
			t.probe(ctx, id, node, i, sc)
		}
		if i == 0 && sc.migrate && t.migrate != nil {
			if err := t.retryConflict(ctx, id, classMigrate, func(ctx context.Context) error {
				return t.migrate(ctx, id, node)
			}); err != nil {
				return api.Session{}, err
			}
		}
	}
	if err := t.call(ctx, classRead, read); err != nil {
		return api.Session{}, err
	}
	final := s
	if t.finish != nil {
		t.finish(ctx, id)
		finished = true
	}
	if err := t.call(ctx, classWrite, func(ctx context.Context) error {
		return t.tgt.DeleteSession(ctx, id)
	}); err != nil {
		return api.Session{}, err
	}
	return final, nil
}

// Advance-workload shape, in simulated seconds.
const (
	preloadSeconds = 20.0
	advanceSeconds = 120.0
	whatIfSeconds  = 30.0
	forkSeconds    = 30.0
)

// advSession is one preloaded advance-workload session and the outputs
// the replay checks.
type advSession struct {
	idx       int
	model     string
	policy    string
	id        string
	last      api.Session // read after the latest op's run
	ops       int         // completed ops
	submitted int         // processes drawn from the deck
	whatifs   []api.WhatIfReport
	forks     []api.RunResult // the forked children's run results
	failed    bool
	// spanCursor is the traced run's /spans cursor.
	spanCursor int64
}

// advSessions lays out the fixed session set: both chip models under all
// four policies. Client c owns the sessions with idx%clients == c.
func advSessions() []*advSession {
	var out []*advSession
	for _, m := range models {
		for _, p := range policies {
			out = append(out, &advSession{idx: len(out), model: m, policy: p})
		}
	}
	return out
}

// advanceProcs is the number of processes an advance-workload session is
// kept at: each op tops the machine up to it before advancing.
const advanceProcs = 3

// advanceDeck is the process mix of the advance workload for a chip
// model: every NPB program at a fixed thread count and six SPEC programs.
// Sessions draw from seeded shuffles of the deck, so the seed orders the
// work while every seed runs the same mix.
func advanceDeck(model string) []api.SubmitRequest {
	threads := 4
	if model == "xgene3" {
		threads = 8
	}
	var deck []api.SubmitRequest
	for _, b := range parallelBenches {
		deck = append(deck, api.SubmitRequest{Benchmark: b, Threads: threads})
	}
	for _, b := range serialBenches[:6] {
		deck = append(deck, api.SubmitRequest{Benchmark: b, Threads: 1})
	}
	return deck
}

// nextProc draws a session's next process: entry n of the n/len(deck)-th
// seeded shuffle of its deck.
func (s *advSession) nextProc(seed int64) api.SubmitRequest {
	deck := advanceDeck(s.model)
	n := s.submitted
	s.submitted++
	perm := seeded(seed, 2, int64(s.idx), int64(n/len(deck))).Perm(len(deck))
	return deck[perm[n%len(deck)]]
}

// preload creates a session and brings it to its starting load: the same
// processes for every seed, so set-up does the same work on every run.
func (t *tenant) preload(ctx context.Context, s *advSession) error {
	var sess api.Session
	if err := t.call(ctx, classWrite, func(ctx context.Context) (err error) {
		sess, err = t.tgt.CreateSession(ctx, api.CreateSessionRequest{Model: s.model, Policy: s.policy})
		return err
	}); err != nil {
		return err
	}
	s.id = sess.ID
	deck := advanceDeck(s.model)
	for n := 0; n < advanceProcs; n++ {
		req := deck[(s.idx*advanceProcs+n)%len(deck)]
		if err := t.call(ctx, classWrite, func(ctx context.Context) error {
			_, err := t.tgt.Submit(ctx, s.id, req)
			return err
		}); err != nil {
			return err
		}
	}
	if _, err := t.run(ctx, s.id, preloadSeconds); err != nil {
		return err
	}
	return t.call(ctx, classRead, func(ctx context.Context) (err error) {
		s.last, err = t.tgt.Session(ctx, s.id)
		return err
	})
}

// advanceOp runs one advance-workload op on a session: top the machine up
// to advanceProcs processes, advance it 120 simulated seconds and read it
// back; every 5th op of a session adds a default what-if, every 10th a
// policy-flip fork whose child is run and deleted.
func (t *tenant) advanceOp(ctx context.Context, seed int64, s *advSession) error {
	j := s.ops
	for have := s.last.Running + s.last.Pending; have < advanceProcs; have++ {
		req := s.nextProc(seed)
		if err := t.call(ctx, classWrite, func(ctx context.Context) error {
			_, err := t.tgt.Submit(ctx, s.id, req)
			return err
		}); err != nil {
			return err
		}
	}
	if _, err := t.run(ctx, s.id, advanceSeconds); err != nil {
		return err
	}
	if err := t.call(ctx, classRead, func(ctx context.Context) (err error) {
		s.last, err = t.tgt.Session(ctx, s.id)
		return err
	}); err != nil {
		return err
	}
	if j%5 == 4 {
		var rep api.WhatIfReport
		if err := t.retryConflict(ctx, s.id, classWhatIf, func(ctx context.Context) (err error) {
			rep, err = t.tgt.WhatIf(ctx, s.id, api.WhatIfRequest{Seconds: whatIfSeconds})
			return err
		}); err != nil {
			return err
		}
		for _, b := range rep.Branches {
			if b.Error != nil {
				if t.rec != nil {
					t.rec.failed++
				}
				return fmt.Errorf("what-if branch %s: %v", b.Name, b.Error)
			}
		}
		if t.rec != nil {
			t.rec.simS += whatIfSeconds * float64(len(rep.Branches))
		}
		s.whatifs = append(s.whatifs, rep)
	}
	if j%10 == 9 {
		flip := flipPolicy(seeded(seed, 3, int64(s.idx), int64(j)), s.policy)
		var fk api.Fork
		if err := t.retryConflict(ctx, s.id, classWrite, func(ctx context.Context) (err error) {
			fk, err = t.tgt.Fork(ctx, s.id, api.ForkRequest{Policy: flip})
			return err
		}); err != nil {
			return err
		}
		child := fk.Session.ID
		res, err := t.run(ctx, child, forkSeconds)
		if err != nil {
			return err
		}
		if t.finish != nil {
			t.finish(ctx, child)
		}
		if err := t.call(ctx, classWrite, func(ctx context.Context) error {
			return t.tgt.DeleteSession(ctx, child)
		}); err != nil {
			return err
		}
		s.forks = append(s.forks, res)
	}
	s.ops++
	return nil
}
