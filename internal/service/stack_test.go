package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/snapshot"
	"avfs/internal/wlgen"
)

// TestWhatIfBranchMatchesLiveOverride pins a what-if branch to the live
// session it predicts: one branch's override (policy flip, power cap or
// both) advanced 60 s must land where PUT /policy with the same override
// takes the session in a 60 s run, and an until-idle branch must stop
// where an until-idle session run stops. Ticks, clock, emergencies,
// voltage and the window energy are exact. The
// seeded mix draws 6.5-9 W, so caps of 12 W and up never bind (the
// branch must still not bring a second placer or free boosting), and the
// 5-7 W caps do; a branch of a capped session retunes its governor.
func TestWhatIfBranchMatchesLiveOverride(t *testing.T) {
	for _, tc := range []struct {
		seed      string
		seedCapW  float64 // a cap the session already runs under
		policy    string
		capW      float64
		untilIdle bool // run to idle within an hour instead of 60 s
	}{
		{seed: "optimal", policy: "baseline"},
		{seed: "baseline", policy: "optimal"},
		{seed: "optimal", capW: 200},
		{seed: "optimal", capW: 12},
		{seed: "optimal", capW: 30},
		{seed: "placement", capW: 200},
		{seed: "baseline", capW: 20},
		{seed: "optimal", seedCapW: 30, capW: 200},
		{seed: "optimal", capW: 5},
		{seed: "baseline", capW: 7},
		{seed: "placement", capW: 7},
		{seed: "optimal", policy: "baseline", capW: 7},
		{seed: "optimal", seedCapW: 5, capW: 6},
		{seed: "optimal", untilIdle: true},
		{seed: "baseline", untilIdle: true},
	} {
		name := fmt.Sprintf("%s-cap%g/%s-cap%g", tc.seed, tc.seedCapW, tc.policy, tc.capW)
		seconds := 60.0
		if tc.untilIdle {
			name += "-until-idle"
			seconds = 3600
		}
		t.Run(name, func(t *testing.T) {
			f, _ := testFleet(t, Config{})
			ctx := context.Background()
			s := seedSession(t, f, tc.seed)
			if tc.seedCapW > 0 {
				if _, err := f.SetPolicy(s.ID, api.PolicyRequest{PowerCapW: &tc.seedCapW}); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{Seconds: seconds, UntilIdle: tc.untilIdle,
				Branches: []api.WhatIfBranchSpec{{Policy: tc.policy, PowerCapW: tc.capW}}})
			if err != nil {
				t.Fatalf("WhatIf: %v", err)
			}
			b := rep.Branches[0]
			if b.Error != nil {
				t.Fatalf("branch failed: %v", b.Error)
			}

			before, err := f.Get(s.ID)
			if err != nil {
				t.Fatal(err)
			}
			// A control branch (no override) predicts the untouched session.
			if tc.policy != "" || tc.capW > 0 {
				req := api.PolicyRequest{Policy: tc.policy}
				if tc.capW > 0 {
					req.PowerCapW = &tc.capW
				}
				if _, err := f.SetPolicy(s.ID, req); err != nil {
					t.Fatalf("SetPolicy: %v", err)
				}
			}
			run, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: seconds, UntilIdle: tc.untilIdle})
			if err != nil {
				t.Fatalf("RunSync: %v", err)
			}
			live, err := f.Get(s.ID)
			if err != nil {
				t.Fatal(err)
			}
			if b.Ticks != run.Ticks || b.Now != run.Now || b.Emergencies != run.Emergencies-before.Emergencies || b.VoltageMV != live.VoltageMV {
				t.Errorf("branch ticks %d now %v s emergencies %d voltage %d mV, live %d %v s %d %d mV",
					b.Ticks, b.Now, b.Emergencies, b.VoltageMV, run.Ticks, run.Now, run.Emergencies-before.Emergencies, live.VoltageMV)
			}
			energy := run.EnergyJ - before.EnergyJ
			if math.Float64bits(b.EnergyJ) != math.Float64bits(energy) {
				t.Errorf("branch energy %v J, live %v J", b.EnergyJ, energy)
			}
			if tc.untilIdle && (b.Running != 0 || b.Pending != 0) {
				t.Errorf("until-idle branch ended with %d running, %d pending", b.Running, b.Pending)
			}
		})
	}
}

// TestUntilIdleWindowMatchesBranch: a session's until-idle run over a
// window the machine does not finish runs in 1 s chunks, each with its own
// deadline, where a control what-if branch sets one deadline for the whole
// window; both stop on the same tick. From tick 3001 the second chunk's
// deadline (now + 1 s) rounds above the tick grid, which without the
// deadline slop RunFor uses committed one tick more than the branch.
// Ticks and clock are exact.
func TestUntilIdleWindowMatchesBranch(t *testing.T) {
	f, _ := testFleet(t, Config{})
	ctx := context.Background()
	s := seedSession(t, f, "optimal")
	if _, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 0.01}); err != nil {
		t.Fatal(err)
	}
	const window = 2.37
	rep, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{Seconds: window, UntilIdle: true,
		Branches: []api.WhatIfBranchSpec{{}}})
	if err != nil {
		t.Fatalf("WhatIf: %v", err)
	}
	b := rep.Branches[0]
	if b.Error != nil {
		t.Fatalf("branch failed: %v", b.Error)
	}
	before, err := f.Get(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if before.Ticks != 3001 {
		t.Fatalf("precondition: the window starts at tick 3001, not %d", before.Ticks)
	}
	run, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: window, UntilIdle: true})
	if err == nil || b.Running == 0 {
		t.Fatalf("precondition: the window must not reach idle (run error %v, branch running %d)", err, b.Running)
	}
	if b.Ticks != run.Ticks || b.Now != run.Now || run.Ticks != before.Ticks+237 {
		t.Errorf("branch ends at tick %d (%v s), session run at tick %d (%v s); want tick %d",
			b.Ticks, b.Now, run.Ticks, run.Now, before.Ticks+237)
	}
	// The chunk ends split the session's coalesced batches where the
	// branch commits one; the fixed-point meter sums both to the same bits.
	if energy := run.EnergyJ - before.EnergyJ; math.Float64bits(b.EnergyJ) != math.Float64bits(energy) {
		t.Errorf("branch energy %v J, session window %v J", b.EnergyJ, energy)
	}
}

// TestSessionMatchesCampaignCell feeds a fleet session the wlgen workload
// of a Table III/IV campaign cell, submitting each arrival at the first
// tick at or after its time as the campaign's replay does, then runs it
// until idle, and checks that the session runs the cell: the same drain instant and tick, the
// same completions, emergencies and daemon actions, and the same energy
// bits. The session differs from the cell only in what
// cannot move the result: its telemetry hooks, the campaign's 1 s power
// recorder and run chunking.
func TestSessionMatchesCampaignCell(t *testing.T) {
	for _, model := range []string{"xgene2", "xgene3"} {
		mdl, err := chip.ParseModel(model)
		if err != nil {
			t.Fatal(err)
		}
		spec := chip.SpecFor(mdl)
		wl := wlgen.Generate(spec, wlgen.Config{Duration: 300}, 42)
		for _, cfg := range experiments.SystemConfigs() {
			t.Run(model+"/"+cfg.Name(), func(t *testing.T) {
				want, err := experiments.Evaluate(spec, wl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				f, _ := testFleet(t, Config{})
				ctx := context.Background()
				ws := mustCreate(t, f, api.CreateSessionRequest{Model: model, Policy: cfg.Name()})
				s, err := f.lookup(ws.ID)
				if err != nil {
					t.Fatal(err)
				}
				now := 0.0
				advance := func(seconds float64) {
					t.Helper()
					r, err := f.RunSync(ctx, ws.ID, api.RunRequest{Seconds: math.Max(seconds, s.m.Tick/2)})
					if err != nil {
						t.Fatalf("RunSync: %v", err)
					}
					now = r.Now
				}
				for _, a := range wl.Arrivals {
					for now < a.At {
						advance(a.At - now)
					}
					if _, err := f.Submit(ws.ID, api.SubmitRequest{Benchmark: a.Bench.Name, Threads: a.Threads}); err != nil {
						t.Fatalf("Submit %s: %v", a.Bench.Name, err)
					}
				}
				// An until-idle run stops at the last completion, where the
				// campaign's replay stops.
				if _, err := f.RunSync(ctx, ws.ID, api.RunRequest{Seconds: 3600, UntilIdle: true}); err != nil {
					t.Fatalf("until-idle RunSync: %v", err)
				}

				got, err := f.Get(ws.ID)
				if err != nil {
					t.Fatal(err)
				}
				fins := s.m.Finished()
				if got.Now != want.TimeSec || got.Running != 0 || got.Pending != 0 ||
					got.Done != wl.TotalProcesses() || fins[len(fins)-1].Completed != want.TimeSec {
					t.Errorf("session at %v (running %d pending %d done %d, last completion %v), cell drained at %v with %d processes",
						got.Now, got.Running, got.Pending, got.Done, fins[len(fins)-1].Completed, want.TimeSec, wl.TotalProcesses())
				}
				if got.Emergencies != want.Emergencies {
					t.Errorf("emergencies %d, cell %d", got.Emergencies, want.Emergencies)
				}
				if st := s.stack.D.Stats(); st != want.DaemonStats {
					t.Errorf("daemon stats %+v, cell %+v", st, want.DaemonStats)
				}
				if math.Float64bits(got.EnergyJ) != math.Float64bits(want.EnergyJ) {
					t.Errorf("energy %v J, cell %v J", got.EnergyJ, want.EnergyJ)
				}
			})
		}
	}
}

// capturedStates captures xgene3 sessions of all four policies loaded
// with the standard mix and advanced 30 s, one flipped optimal → baseline
// → placement → safe-vmin with a capture after every flip (the last
// keeps a disabled daemon configured for Placement), and one running
// under a 30 W cap. They are the valid rows of the restore table and the
// fuzz corpus.
func capturedStates(tb testing.TB) map[string]*snapshot.SessionState {
	tb.Helper()
	out := map[string]*snapshot.SessionState{}
	mk := func(policy string) *session {
		s, err := newSession(context.Background(), "s-"+policy,
			api.CreateSessionRequest{Model: "xgene3", Policy: policy}, time.Hour, time.Unix(0, 0), obsConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		for _, sub := range []api.SubmitRequest{
			{Benchmark: "CG", Threads: 8},
			{Benchmark: "LU", Threads: 4},
			{Benchmark: "lbm", Threads: 1},
		} {
			if _, err := s.submit(sub, time.Unix(0, 0)); err != nil {
				tb.Fatal(err)
			}
		}
		s.m.RunFor(30)
		return s
	}
	capture := func(name string, s *session) {
		s.mu.Lock()
		st, err := s.captureStateLocked()
		s.mu.Unlock()
		if err != nil {
			tb.Fatalf("capture %s: %v", name, err)
		}
		out[name] = st
	}
	for _, cfg := range experiments.SystemConfigs() {
		capture(cfg.Name(), mk(cfg.Name()))
	}
	flipped := mk("optimal")
	name := "optimal"
	for _, p := range []string{"baseline", "placement", "safe-vmin"} {
		if err := flipped.setPolicy(api.PolicyRequest{Policy: p}, time.Unix(0, 0)); err != nil {
			tb.Fatal(err)
		}
		flipped.m.RunFor(5)
		name += "-" + p
		capture(name, flipped)
	}
	capped := mk("optimal")
	w := 30.0
	if err := capped.setPolicy(api.PolicyRequest{PowerCapW: &w}, time.Unix(0, 0)); err != nil {
		tb.Fatal(err)
	}
	capped.m.RunFor(5)
	capture("optimal-cap30", capped)
	return out
}

// TestRestoreChecksStackAgainstPolicy restores captured states of every
// policy (flipped and capped ones included) bit-identically, and rejects
// outside state whose control stack contradicts its policy label: one
// row per rule (the enabled stack, the daemon's configuration).
func TestRestoreChecksStackAgainstPolicy(t *testing.T) {
	states := capturedStates(t)
	restore := func(st *snapshot.SessionState) (*session, error) {
		return restoreSession(context.Background(), "r", st, 0, time.Hour, time.Unix(0, 0), obsConfig{})
	}
	for name, st := range states {
		s, err := restore(st)
		if err != nil {
			t.Errorf("%s: restore failed: %v", name, err)
			continue
		}
		s.mu.Lock()
		again, err := s.captureStateLocked()
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		id0, _, _ := snapshot.Encode(st)
		id1, _, _ := snapshot.Encode(again)
		if id0 != id1 {
			t.Errorf("%s: restore did not round-trip (snapshot %s, recaptured %s)", name, id0, id1)
		}
	}

	// mutate edits a deep copy of a captured state.
	mutate := func(name string, edit func(*snapshot.SessionState)) *snapshot.SessionState {
		_, payload, err := snapshot.Encode(states[name])
		if err != nil {
			t.Fatal(err)
		}
		st, err := snapshot.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		edit(st)
		return st
	}
	for _, tc := range []struct {
		name string
		st   *snapshot.SessionState
	}{
		{"optimal with the baseline enabled too",
			mutate("optimal", func(st *snapshot.SessionState) { st.Baseline.Disabled = false })},
		{"baseline with neither stack enabled",
			mutate("baseline", func(st *snapshot.SessionState) { st.Baseline.Disabled = true })},
		{"safe-vmin with the daemon enabled",
			mutate("safe-vmin", func(st *snapshot.SessionState) { st.Daemon.Disabled = false })},
		{"placement running the optimal daemon",
			mutate("placement", func(st *snapshot.SessionState) { st.Daemon.Cfg.AdaptVoltage = true })},
		{"optimal with the fail-safe order inverted",
			mutate("optimal", func(st *snapshot.SessionState) { st.Daemon.Cfg.UnsafeOrder = true })},
		{"capped optimal without its guard step",
			mutate("optimal-cap30", func(st *snapshot.SessionState) { st.Daemon.Cfg.GuardMV = 0 })},
		{"baseline whose governor never samples again",
			mutate("baseline", func(st *snapshot.SessionState) { st.Baseline.NextSample = 1e308 })},
		{"safe-vmin with a negative sample instant",
			mutate("safe-vmin", func(st *snapshot.SessionState) { st.Baseline.NextSample = -1 })},
		{"capped optimal whose cap never samples again",
			mutate("optimal-cap30", func(st *snapshot.SessionState) { st.PowerCap.NextSample = 1e308 })},
		{"capped optimal whose cap stalls after its next sample",
			mutate("optimal-cap30", func(st *snapshot.SessionState) { st.PowerCap.SamplePeriod = 1e308 })},
		{"capped optimal sampling slower than once a second",
			mutate("optimal-cap30", func(st *snapshot.SessionState) { st.PowerCap.SamplePeriod = 1.5 })},
		{"capped optimal without a hysteresis band",
			mutate("optimal-cap30", func(st *snapshot.SessionState) { st.PowerCap.Headroom = 1e308 })},
		{"capped optimal with a negative headroom",
			mutate("optimal-cap30", func(st *snapshot.SessionState) { st.PowerCap.Headroom = -0.5 })},
	} {
		if _, err := restore(tc.st); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: restore = %v, want ErrInvalidRequest", tc.name, err)
		}
	}
}

// TestStoredSnapshotWithoutStateIsMiss plants stored payloads that lack
// the machine or daemon half (a disk-mirror file can carry a matching
// content address): a fork, a what-if and a fast what-if from them must
// report the snapshot missing rather than dereference the absent state.
func TestStoredSnapshotWithoutStateIsMiss(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := seedSession(t, f, "optimal")
	full := capturedStates(t)["optimal"]
	for _, st := range []*snapshot.SessionState{
		{Model: "xgene3", Policy: "optimal", Daemon: full.Daemon},
		{Model: "xgene3", Policy: "optimal", Machine: full.Machine},
	} {
		id, err := f.snaps.Put(st)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Fork(s.ID, api.ForkRequest{SnapshotID: id}); !errors.Is(err, ErrSnapshotNotFound) {
			t.Errorf("fork = %v, want ErrSnapshotNotFound", err)
		}
		for _, fast := range []bool{false, true} {
			_, err := f.WhatIf(context.Background(), s.ID, api.WhatIfRequest{SnapshotID: id, Seconds: 1, Fast: fast})
			if !errors.Is(err, ErrSnapshotNotFound) {
				t.Errorf("what-if (fast %t) = %v, want ErrSnapshotNotFound", fast, err)
			}
		}
	}
}

// FuzzRestoreSession drives arbitrary snapshot JSON through
// restoreSession, the trust boundary of peer imports and disk-mirror
// reads (machine, daemon, baseline and power-cap restore). Whatever
// restores must advance one simulated second and capture again without
// panicking; the step is capped at 1e5 ticks so a mutated tick cannot
// stall the fuzzer.
func FuzzRestoreSession(f *testing.F) {
	states := capturedStates(f)
	for _, st := range states {
		_, payload, err := snapshot.Encode(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// Sample instants, cap periods and headrooms no serial run produces:
	// restore must reject them.
	for _, seed := range []struct {
		name string
		edit func(*snapshot.SessionState)
	}{
		{"baseline", func(st *snapshot.SessionState) { st.Baseline.NextSample = 1e308 }},
		{"safe-vmin", func(st *snapshot.SessionState) { st.Baseline.NextSample = -1e308 }},
		{"optimal-cap30", func(st *snapshot.SessionState) { st.PowerCap.NextSample = 1e308 }},
		{"optimal-cap30", func(st *snapshot.SessionState) { st.PowerCap.SamplePeriod = 1e308 }},
		{"optimal-cap30", func(st *snapshot.SessionState) { st.PowerCap.Headroom = 1e308 }},
		{"optimal-cap30", func(st *snapshot.SessionState) { st.PowerCap.Headroom = -1 }},
	} {
		_, payload, err := snapshot.Encode(states[seed.name])
		if err != nil {
			f.Fatal(err)
		}
		st, err := snapshot.Decode(payload)
		if err != nil {
			f.Fatal(err)
		}
		seed.edit(st)
		if _, payload, err = snapshot.Encode(st); err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := snapshot.Decode(data)
		if err != nil {
			return
		}
		s, err := restoreSession(context.Background(), "fz", st, 0, time.Hour, time.Unix(0, 0), obsConfig{})
		if err != nil {
			return
		}
		defer s.cancel()
		s.m.RunFor(math.Min(1, 1e5*s.m.Tick))
		s.mu.Lock()
		defer s.mu.Unlock()
		_, _ = s.captureStateLocked()
	})
}
