package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/service"
	"avfs/internal/sim"
	"avfs/internal/surrogate"
	"avfs/internal/workload"
)

// runInteractive drives tenant scripts straight at one node.
func runInteractive(ctx context.Context, o options) (*outcome, error) {
	return runTenants(ctx, o, false)
}

// runRouted drives the same scripts through the router to two nodes.
func runRouted(ctx context.Context, o options) (*outcome, error) {
	return runTenants(ctx, o, true)
}

// tenantLoad is the interactive and routed load generator: two
// closed-loop clients, each looping over its own seeded scripts.
type tenantLoad struct {
	o      options
	st     *stack
	routed bool
	next   [clients]int // scripts each client has started
	fails  failureLog

	mu   sync.Mutex
	done []doneScript // completed scripts, for the replay

	estMu sync.Mutex
	est   map[string]*surrogate.Estimator // traced run: the surrogate layer itself
}

// doneScript is a completed script and the end state it read back before
// deleting its session.
type doneScript struct {
	idx   int
	final api.Session
}

func runTenants(ctx context.Context, o options, routed bool) (*outcome, error) {
	nodes := 1
	if routed {
		nodes = 2
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	setup, st, err := setUp(func() (*stack, error) {
		st, err := newStack(nodes, routed, tr)
		if err != nil {
			return nil, err
		}
		if err := st.warmEstimates(ctx); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	}, (*stack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	heap := liveHeapMB()
	l := &tenantLoad{o: o, st: st, routed: routed}
	out := newOutcome()
	warm, _ := l.window(ctx, warmup)
	out.attempted, out.failed = warm.attempted, warm.failed
	if o.trace {
		if err := l.traced(ctx, out); err != nil {
			return nil, err
		}
	} else {
		rec, elapsed := l.window(ctx, o.window())
		rec.endToEnd(out.metrics, setup, heap, elapsed)
		out.attempted += rec.attempted
		out.failed += rec.failed
	}
	l.replay(ctx, out)
	return out, nil
}

// window runs both clients until the deadline; a script the deadline cuts
// is abandoned (its session stays behind, idle) and not replayed.
func (l *tenantLoad) window(ctx context.Context, d time.Duration) (*recorder, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var recs [clients]*recorder
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := l.tenant(c, recs[c], deadline)
			for time.Now().Before(deadline) {
				idx := clients*l.next[c] + c
				l.next[c]++
				sc := newScript(l.o.seed, idx)
				final, err := t.runScript(ctx, &sc)
				switch {
				case errors.Is(err, errDeadline):
				case err != nil:
					l.fails.add("script %d: %v", idx, err)
				default:
					l.mu.Lock()
					l.done = append(l.done, doneScript{idx: idx, final: final})
					l.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	return recs[0], elapsed
}

// tenant builds client c's tenant for one window.
func (l *tenantLoad) tenant(c int, rec *recorder, deadline time.Time) *tenant {
	t := &tenant{id: c, rec: rec, tr: l.st.tr, deadline: deadline, perRequestOps: true}
	if l.routed {
		t.tgt = routedTarget{Client: l.st.routerClient(), estimates: l.st.nodeClient(0)}
		t.migrate = l.st.migrate
	} else {
		t.tgt = l.st.nodeClient(0)
	}
	if l.st.tr.active() {
		t.probe = l.probe
		t.finish = l.pullSpans
	}
	return t
}

// traced runs the per-layer variant; the traced half also times estimates
// on the surrogate Estimator itself.
func (l *tenantLoad) traced(ctx context.Context, out *outcome) error {
	est, err := fitEstimators()
	if err != nil {
		return err
	}
	l.est = est
	if err := l.st.tracedHalves(ctx, l.o, out, l.window, nil); err != nil {
		return err
	}
	return finishTrace(l.st.tr, out, l.o.spansOut)
}

// probe makes the traced run's in-process calls after a round's run, off
// the client's clock. Direct: the round's reads and estimate on
// *service.Fleet, the estimate on the surrogate Estimator itself, and a
// snapshot once per script. Routed, before a migration: a snapshot on the
// owning fleet, and a span pull, as the session's ring leaves with it.
func (l *tenantLoad) probe(ctx context.Context, id, nodeName string, round int, sc *script) {
	tr := l.st.tr
	if l.routed {
		if round == 0 && sc.migrate {
			if n := l.st.nodeNamed(nodeName); n != nil {
				tr.timeCall("snapshot.call_ms", func() error { _, err := n.fleet.Snapshot(id); return err })
			}
			l.pullSpans(ctx, id)
		}
		return
	}
	f := l.st.nodes[0].fleet
	est := sc.rounds[round].est
	tr.timeCall("fleet.call_ms.get", func() error { _, err := f.Get(id); return err })
	tr.timeCall("fleet.call_ms.energy", func() error { _, err := f.Energy(id); return err })
	tr.timeCall("fleet.call_ms.estimate", func() error { _, err := f.Estimate(est); return err })
	if round == 0 {
		tr.timeCall("fleet.call_ms.snapshot", func() error { _, err := f.Snapshot(id); return err })
	}
	l.timeSurrogate(est)
}

// pullSpans collects a session's server spans from its ring (through the
// router when routed) before deletion or migration discards it.
func (l *tenantLoad) pullSpans(ctx context.Context, id string) {
	c := l.st.nodeClient(0)
	if l.routed {
		c = l.st.routerClient()
	}
	if sps, _, _, err := c.Spans(ctx, id, 0); err == nil {
		l.st.tr.addServer(sps)
	}
}

// fitEstimators fits both chips' surrogate models once, so the traced run
// can time queries at the surrogate layer itself.
func fitEstimators() (map[string]*surrogate.Estimator, error) {
	fits := surrogate.NewStore("")
	out := map[string]*surrogate.Estimator{}
	for name, spec := range map[string]*chip.Spec{"xgene2": chip.XGene2Spec(), "xgene3": chip.XGene3Spec()} {
		m, err := fits.Get(spec, surrogate.FitConfig{})
		if err != nil {
			return nil, fmt.Errorf("surrogate fit for %s: %w", name, err)
		}
		est, err := surrogate.NewEstimator(spec, m, 0, surrogate.CONS)
		if err != nil {
			return nil, err
		}
		out[name] = est
	}
	return out, nil
}

// timeSurrogate times one estimate on the fitted Estimator, below the
// fleet's estimator registry and its lock.
func (l *tenantLoad) timeSurrogate(req api.EstimateRequest) {
	b, err := workload.ByName(req.Benchmark)
	if err != nil {
		return
	}
	place := sim.Clustered
	if req.Placement == "spreaded" {
		place = sim.Spreaded
	}
	// An Estimator is not safe for concurrent use.
	l.estMu.Lock()
	defer l.estMu.Unlock()
	est := l.est[req.Model]
	if est == nil {
		return
	}
	l.st.tr.timeCall("estimate.call_ms", func() error {
		_, err := est.EstimateEnergy(surrogate.Query{Bench: b, Threads: req.Threads, Placement: place})
		return err
	})
}

// replay re-runs every completed script on a fresh in-process fleet, one
// request at a time and without migrations (bit-identical by contract),
// and compares each end state with the one the measured run read back.
func (l *tenantLoad) replay(ctx context.Context, out *outcome) {
	f := service.New(service.Config{})
	defer f.Close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tenant{tgt: fleetTarget{f}, id: c}
			for i := c; i < len(l.done); i += clients {
				d := l.done[i]
				sc := newScript(l.o.seed, d.idx)
				got, err := t.runScript(ctx, &sc)
				if err == nil {
					err = sameSession(got, d.final)
				}
				mu.Lock()
				out.attempted++
				if err != nil {
					out.mismatch("script %d: %v", d.idx, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}
