package service

import (
	"context"
	"math"
	"testing"

	"avfs/api"
	"avfs/internal/daemon"
	"avfs/internal/snapshot"
	"avfs/internal/telemetry"
)

// reconfigMetric reads a session's avfsd_reconfigurations_total.
func reconfigMetric(t *testing.T, f *Fleet, id string) float64 {
	t.Helper()
	s, err := f.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.reg.Value(daemon.MetricReconfigs)
	if !ok {
		t.Fatalf("%s not registered", daemon.MetricReconfigs)
	}
	return v
}

// snapshotReconfigs captures a session and returns the stored state and
// its daemon reconfiguration count.
func snapshotReconfigs(t *testing.T, f *Fleet, id string) (*snapshot.SessionState, int64) {
	t.Helper()
	snap, err := f.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := f.snaps.Get(snap.ID)
	if !ok {
		t.Fatal("captured snapshot not in the store")
	}
	return st, st.Daemon.Reconfigs
}

// TestBlockedQueueAddsNoTraceRecords: an X-Gene 2 Optimal session whose
// FIFO head cannot fit used to replan on every 10 ms tick, and every
// replan wrote four decision records (placement, guard-raise,
// reconfigure, settle) and counted a reconfiguration. A replan that
// changes nothing is not a reconfiguration: over a 10 s blocked stretch
// the trace gains only the monitoring polls' classify records, the
// reconfiguration counter and the snapshot's reconfigs stay put, and a
// snapshot carrying an older, higher count still restores and replays.
func TestBlockedQueueAddsNoTraceRecords(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := mustCreate(t, f, api.CreateSessionRequest{Model: "xgene2", Policy: "optimal"})
	for _, sub := range []api.SubmitRequest{
		{Benchmark: "namd", Threads: 1}, {Benchmark: "lbm", Threads: 1},
		{Benchmark: "namd", Threads: 1}, {Benchmark: "gcc", Threads: 1},
		{Benchmark: "namd", Threads: 1}, {Benchmark: "h264ref", Threads: 1},
		{Benchmark: "namd", Threads: 1}, {Benchmark: "gcc", Threads: 1},
		{Benchmark: "CG", Threads: 8},
	} {
		if _, err := f.Submit(s.ID, sub); err != nil {
			t.Fatalf("Submit %s: %v", sub.Benchmark, err)
		}
	}
	ctx := context.Background()
	if _, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 3}); err != nil {
		t.Fatal(err)
	}
	_, next, _, err := f.TraceSince(s.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	reconfigs := reconfigMetric(t, f, s.ID)
	_, snapReconfigs := snapshotReconfigs(t, f, s.ID)

	if _, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 10}); err != nil {
		t.Fatal(err)
	}
	if g, _ := f.Get(s.ID); g.Pending != 1 || g.Running != 8 {
		t.Fatalf("precondition: the CG head must stay blocked behind 8 programs (running %d, pending %d)", g.Running, g.Pending)
	}
	recs, _, _, err := f.TraceSince(s.ID, next)
	if err != nil {
		t.Fatal(err)
	}
	classify := 0
	for _, r := range recs {
		if r.Kind != telemetry.DecClassify {
			t.Errorf("blocked stretch traced a %v decision at %.2f s (%s)", r.Kind, r.At, r.Rule)
			continue
		}
		classify++
	}
	// One classification per running program per 0.4 s poll, at most.
	if classify > 8*26 {
		t.Errorf("blocked stretch traced %d classify records, want at most one per program per poll", classify)
	}
	if got := reconfigMetric(t, f, s.ID); got != reconfigs {
		t.Errorf("%s moved %v -> %v over a blocked stretch", daemon.MetricReconfigs, reconfigs, got)
	}
	st, got := snapshotReconfigs(t, f, s.ID)
	if got != snapReconfigs {
		t.Errorf("snapshot reconfigs moved %d -> %d over a blocked stretch", snapReconfigs, got)
	}

	// A snapshot written before the skip existed carries the same fields
	// with a reconfiguration count inflated by the per-tick replans. It
	// restores, reports its own count, and replays like the live session.
	_, payload, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	old, err := snapshot.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	old.Daemon.Reconfigs += 4000
	oldID, err := f.snaps.Put(old)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := f.Fork(s.ID, api.ForkRequest{SnapshotID: oldID})
	if err != nil {
		t.Fatalf("restoring an older snapshot: %v", err)
	}
	if got := reconfigMetric(t, f, fork.Session.ID); got != float64(old.Daemon.Reconfigs) {
		t.Errorf("restored session reports %v reconfigurations, want the snapshot's %d", got, old.Daemon.Reconfigs)
	}
	pr, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := f.RunSync(ctx, fork.Session.ID, api.RunRequest{Seconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Ticks != cr.Ticks || pr.Emergencies != cr.Emergencies ||
		math.Float64bits(pr.EnergyJ) != math.Float64bits(cr.EnergyJ) {
		t.Errorf("restored older snapshot diverged:\nlive     %+v\nrestored %+v", pr, cr)
	}
	pg, _ := f.Get(s.ID)
	cg, _ := f.Get(fork.Session.ID)
	if pg.Done != cg.Done || pg.Running != cg.Running || pg.Pending != cg.Pending || pg.VoltageMV != cg.VoltageMV {
		t.Errorf("restored older snapshot's state diverged:\nlive     %+v\nrestored %+v", pg, cg)
	}
}
