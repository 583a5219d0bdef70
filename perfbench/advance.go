package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"avfs/internal/service"
	"avfs/internal/telemetry/export"
)

// runAdvance drives the preloaded sessions of one node with long advances.
func runAdvance(ctx context.Context, o options) (*outcome, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	setup, l, err := setUp(func() (*advanceLoad, error) { return newAdvanceLoad(ctx, o, tr) },
		func(l *advanceLoad) { l.st.close() })
	if err != nil {
		return nil, err
	}
	defer l.st.close()
	heap := liveHeapMB()
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

// advanceLoad is the advance load generator: two closed-loop clients,
// each cycling over its half of the preloaded sessions.
type advanceLoad struct {
	o     options
	st    *stack
	sess  []*advSession
	fails failureLog

	mu       sync.Mutex
	shard    []float64 // traced: the gang shard-size gauge after each op
	speedups []float64 // traced: the what-ifs' batch speedup estimates
}

// newAdvanceLoad starts one node and preloads the session set.
func newAdvanceLoad(ctx context.Context, o options, tr *tracer) (*advanceLoad, error) {
	st, err := newStack(1, false, tr)
	if err != nil {
		return nil, err
	}
	l := &advanceLoad{o: o, st: st, sess: advSessions()}
	t := &tenant{tgt: st.nodeClient(0)}
	for _, s := range l.sess {
		if err := t.preload(ctx, s); err != nil {
			st.close()
			return nil, fmt.Errorf("preload %s/%s: %w", s.model, s.policy, err)
		}
	}
	return l, nil
}

// window runs both clients until the deadline. Ops are never cut: the
// replay must see whole ops, so the window ends with the last one.
func (l *advanceLoad) window(ctx context.Context, d time.Duration) (*recorder, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var recs [clients]*recorder
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tenant{tgt: l.st.nodeClient(0), id: c, rec: recs[c], tr: l.st.tr}
			if t.tr.active() {
				t.finish = l.pullChildSpans
			}
			var mine []*advSession
			for _, s := range l.sess {
				if s.idx%clients == c && !s.failed {
					mine = append(mine, s)
				}
			}
			for k := 0; len(mine) > 0 && time.Now().Before(deadline); k++ {
				i := k % len(mine)
				s := mine[i]
				opStart := time.Now()
				if err := t.advanceOp(ctx, l.o.seed, s); err != nil {
					l.fails.add("session %s (%s/%s) op %d: %v", s.id, s.model, s.policy, s.ops, err)
					s.failed = true
					mine = append(mine[:i], mine[i+1:]...)
					continue
				}
				t.rec.ops = append(t.rec.ops, ms(time.Since(opStart)))
				if t.tr.active() {
					l.observe(ctx, s)
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

// observe makes the traced run's pulls after one op, off the op's clock:
// the session's new server spans, the fleet's gang shard-size gauge and,
// after a what-if, a snapshot timed in-process plus the batch speedup.
func (l *advanceLoad) observe(ctx context.Context, s *advSession) {
	if sps, next, _, err := l.st.nodeClient(0).Spans(ctx, s.id, s.spanCursor); err == nil {
		s.spanCursor = next
		l.st.tr.addServer(sps)
	}
	whatIf := (s.ops-1)%5 == 4
	if whatIf {
		f := l.st.nodes[0].fleet
		l.st.tr.timeCall("snapshot.call_ms", func() error { _, err := f.Snapshot(s.id); return err })
	}
	m, err := scrape(ctx, l.st.hc, l.st.nodes[0].srv.URL+"/metrics")
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		l.shard = append(l.shard, m["avfs_sim_batch_shard_size"])
	}
	if n := len(s.whatifs); whatIf && n > 0 && s.whatifs[n-1].Batch != nil {
		l.speedups = append(l.speedups, s.whatifs[n-1].Batch.SpeedupEst)
	}
}

// pullChildSpans collects a forked child's server spans before the op
// deletes it.
func (l *advanceLoad) pullChildSpans(ctx context.Context, id string) {
	if sps, _, _, err := l.st.nodeClient(0).Spans(ctx, id, 0); err == nil {
		l.st.tr.addServer(sps)
	}
}

// traced runs the per-layer variant; the preloaded sessions' own counters
// are read on both sides of the traced half too.
func (l *advanceLoad) traced(ctx context.Context, out *outcome) error {
	var sess []sessCounters
	mark := func(ctx context.Context) error {
		sc, err := l.sessionCounters(ctx)
		sess = append(sess, sc)
		return err
	}
	if err := l.st.tracedHalves(ctx, l.o, out, l.window, mark); err != nil {
		return err
	}
	sess[1].setDeltaMetrics(out.metrics, sess[0])
	out.metrics["gang.shard_size"] = mean(l.shard)
	out.metrics["whatif.batch_speedup_est"] = mean(l.speedups)
	return finishTrace(l.st.tr, out, l.o.spansOut)
}

// sessCounters sums the preloaded sessions' exported counters.
type sessCounters struct {
	lockWait, lockWaitN float64 // avfs_session_lock_wait_seconds sum and count
	lockHold, lockHoldN float64 // avfs_session_lock_hold_seconds sum and count
	ticks, coalesced    float64 // avfs_sim_ticks_total, avfs_sim_ticks_coalesced_total
	decisions           float64 // /trace records ever emitted
	simS                float64 // simulated seconds
}

// sessionCounters reads every live preloaded session's /metrics, /trace
// cursor and clock, and moves its /spans cursor to the ring's head.
func (l *advanceLoad) sessionCounters(ctx context.Context) (sessCounters, error) {
	c := l.st.nodeClient(0)
	var sc sessCounters
	for _, s := range l.sess {
		if s.failed {
			continue
		}
		text, err := c.Metrics(ctx, s.id)
		if err != nil {
			return sc, err
		}
		parsed, err := export.ParsePrometheus(strings.NewReader(text))
		if err != nil {
			return sc, err
		}
		m := sumByName(parsed)
		sc.lockWait += m["avfs_session_lock_wait_seconds_sum"]
		sc.lockWaitN += m["avfs_session_lock_wait_seconds_count"]
		sc.lockHold += m["avfs_session_lock_hold_seconds_sum"]
		sc.lockHoldN += m["avfs_session_lock_hold_seconds_count"]
		sc.ticks += m["avfs_sim_ticks_total"]
		sc.coalesced += m["avfs_sim_ticks_coalesced_total"]
		_, next, err := c.Trace(ctx, s.id, math.MaxInt64)
		if err != nil {
			return sc, err
		}
		sc.decisions += float64(next)
		sess, err := c.Session(ctx, s.id)
		if err != nil {
			return sc, err
		}
		sc.simS += sess.Now
		if _, s.spanCursor, _, err = c.Spans(ctx, s.id, math.MaxInt64); err != nil {
			return sc, err
		}
	}
	return sc, nil
}

// setDeltaMetrics sets the session-level per-layer metrics from the
// counters' growth since before.
func (sc sessCounters) setDeltaMetrics(m map[string]float64, before sessCounters) {
	m["actor.lock_wait_ms"] = 1e3 * ratio(sc.lockWait-before.lockWait, sc.lockWaitN-before.lockWaitN)
	m["actor.lock_hold_ms"] = 1e3 * ratio(sc.lockHold-before.lockHold, sc.lockHoldN-before.lockHoldN)
	m["sim.coalesced_ratio"] = ratio(sc.coalesced-before.coalesced, sc.ticks-before.ticks)
	m["daemon.decisions_per_sim_s"] = ratio(sc.decisions-before.decisions, sc.simS-before.simS)
}

// replay re-runs every session's preload and completed ops on a fresh
// in-process fleet and compares its last state, what-ifs and forks.
func (l *advanceLoad) replay(ctx context.Context, out *outcome) {
	f := service.New(service.Config{})
	defer f.Close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tenant{tgt: fleetTarget{f}, id: c}
			for _, s := range l.sess {
				if s.idx%clients != c || s.failed {
					continue
				}
				r := &advSession{idx: s.idx, model: s.model, policy: s.policy}
				err := t.preload(ctx, r)
				for err == nil && r.ops < s.ops {
					err = t.advanceOp(ctx, l.o.seed, r)
				}
				if err == nil {
					err = sameAdvance(r, s)
				}
				mu.Lock()
				out.attempted++
				if err != nil {
					out.mismatch("session %s/%s: %v", s.model, s.policy, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}
