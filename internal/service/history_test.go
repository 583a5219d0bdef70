package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"avfs/api"
	"avfs/internal/snapshot"
	"avfs/internal/telemetry"
	"avfs/internal/telemetry/export"
)

// decision is the n-th decision fed to a test ring, tagged with its
// absolute index so order and identity are checkable.
func decision(n int64) telemetry.Decision {
	return telemetry.Decision{At: float64(n), Reconfig: n, Proc: -1}
}

// wantWindow checks that recs are exactly decisions from..to-1 in order.
func wantWindow(t *testing.T, tag string, recs []telemetry.Decision, from, to int64) {
	t.Helper()
	if int64(len(recs)) != to-from {
		t.Fatalf("%s: %d records, want %d", tag, len(recs), to-from)
	}
	for i, d := range recs {
		if d != decision(from+int64(i)) {
			t.Fatalf("%s: record %d is decision %d, want %d", tag, i, d.Reconfig, from+int64(i))
		}
	}
}

// TestTraceRingWrap drives the decision ring three times past its
// capacity: the window is always the newest traceCap decisions in order,
// and the (next, truncated) cursor contract holds at its boundaries.
func TestTraceRingWrap(t *testing.T) {
	s := &session{}
	for n := int64(0); n < 10; n++ {
		s.appendTrace(decision(n))
	}
	recs, next, truncated := s.traceSince(0)
	if truncated || next != 10 {
		t.Fatalf("before wrap: next %d truncated %v", next, truncated)
	}
	wantWindow(t, "before wrap", recs, 0, 10)

	const total = 3*traceCap + 7
	for n := int64(10); n < total; n++ {
		s.appendTrace(decision(n))
	}
	oldest := int64(total - traceCap)
	for _, tc := range []struct {
		name      string
		since     int64
		from      int64
		truncated bool
	}{
		{"from zero", 0, oldest, true},
		{"one behind the oldest", oldest - 1, oldest, true},
		{"at the oldest", oldest, oldest, false},
		{"mid window, before the wrap point", oldest + 5, oldest + 5, false},
		{"mid window, past the wrap point", total - 3, total - 3, false},
		{"at the newest", total, total, false},
	} {
		recs, next, truncated := s.traceSince(tc.since)
		if next != total || truncated != tc.truncated {
			t.Errorf("%s: next %d truncated %v, want %d %v", tc.name, next, truncated, int64(total), tc.truncated)
		}
		wantWindow(t, tc.name, recs, tc.from, total)
	}
}

// TestAppendTraceFullRingConstant pins the ring's O(1) append: once the
// ring is full, a decision allocates nothing and overwrites exactly one
// slot of the same backing array, instead of shifting the window.
func TestAppendTraceFullRingConstant(t *testing.T) {
	s := &session{}
	n := int64(0)
	for ; n < traceCap+3; n++ {
		s.appendTrace(decision(n))
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.appendTrace(decision(n))
		n++
	}); allocs != 0 {
		t.Errorf("append to a full ring allocates %v times", allocs)
	}

	before := append([]telemetry.Decision(nil), s.traceBuf...)
	base := unsafe.SliceData(s.traceBuf)
	s.appendTrace(decision(n))
	if unsafe.SliceData(s.traceBuf) != base || len(s.traceBuf) != traceCap {
		t.Fatal("append to a full ring replaced the backing array")
	}
	for i := range before {
		changed := s.traceBuf[i] != before[i]
		if want := int64(i) == n%traceCap; changed != want {
			t.Fatalf("slot %d changed=%v, want %v (only the oldest slot may be overwritten)", i, changed, want)
		}
	}
}

// loadHistory gives a session many more finished processes than it
// retains: waves of single-threaded jobs, each run to completion.
func loadHistory(t *testing.T, f *Fleet, id string, waves int) {
	t.Helper()
	for w := 0; w < waves; w++ {
		for i := 0; i < 32; i++ {
			if _, err := f.Submit(id, api.SubmitRequest{Benchmark: "namd", Threads: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.RunSync(context.Background(), id, api.RunRequest{Seconds: 600, UntilIdle: true}); err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
	}
}

// snapshotByteCap bounds the encoded snapshot of a session whose live
// load is one machine's worth of single-threaded jobs: sessionHistory
// finished processes at about 300 B each, plus about 25 KB of live state.
// Full history would take about 175 KB for the 512 finished processes of
// TestSnapshotSizeBounded.
const snapshotByteCap = 64 << 10

// TestSnapshotSizeBounded: a session that has finished many times more
// processes than it retains captures and encodes in bounded size, with
// its totals exact.
func TestSnapshotSizeBounded(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := mustCreate(t, f, api.CreateSessionRequest{Model: "xgene3", Policy: "optimal"})
	loadHistory(t, f, s.ID, 16)
	// Leave a live machine's worth of work in the snapshot too.
	for i := 0; i < 32; i++ {
		if _, err := f.Submit(s.ID, api.SubmitRequest{Benchmark: "namd", Threads: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.RunSync(context.Background(), s.ID, api.RunRequest{Seconds: 5}); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Done != 16*32 {
		t.Fatalf("done = %d, want %d", got.Done, 16*32)
	}
	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := sessionHistory + got.Running + got.Pending; snap.Processes != want {
		t.Errorf("snapshot carries %d processes, want %d", snap.Processes, want)
	}
	st, ok := f.snaps.Get(snap.ID)
	if !ok {
		t.Fatal("snapshot not stored")
	}
	if st.Machine.FinishedDropped != got.Done-sessionHistory {
		t.Errorf("finished_dropped = %d, want %d", st.Machine.FinishedDropped, got.Done-sessionHistory)
	}
	_, payload, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > snapshotByteCap {
		t.Errorf("snapshot of %d finished processes is %d bytes, cap %d", got.Done, len(payload), snapshotByteCap)
	}
	t.Logf("%d finished, %d live: %d bytes", got.Done, got.Running+got.Pending, len(payload))

	// The fleet's snapshot-size histogram saw the one Put.
	var sb strings.Builder
	if err := export.Prometheus(&sb, f.Registry()); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"avfs_snapshot_bytes_count 1",
		fmt.Sprintf("avfs_snapshot_bytes_sum %d", len(payload)),
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("fleet metrics missing %q", line)
		}
	}
}

// TestSessionHistoryExact: past the retention window a session's listing
// holds the newest finished tail and reports the rest as dropped, while
// Done and the what-if and fork counts stay exact.
func TestSessionHistoryExact(t *testing.T) {
	f, _ := testFleet(t, Config{})
	s := mustCreate(t, f, api.CreateSessionRequest{Model: "xgene3", Policy: "optimal"})
	loadHistory(t, f, s.ID, 4)
	for i := 0; i < 48; i++ {
		if _, err := f.Submit(s.ID, api.SubmitRequest{Benchmark: "namd", Threads: 1}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := f.Get(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	list, err := f.Processes(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	finished := 0
	for _, p := range list.Processes {
		if p.State == "finished" {
			finished++
		}
	}
	if finished != sessionHistory || list.FinishedDropped != before.Done-sessionHistory ||
		len(list.Processes) != sessionHistory+before.Running+before.Pending {
		t.Fatalf("listing: %d processes, %d finished, %d dropped; session done %d running %d pending %d",
			len(list.Processes), finished, list.FinishedDropped, before.Done, before.Running, before.Pending)
	}

	// The what-if's optimal branch replays exactly what the session then
	// runs, and a fork taken before the run lands on the same totals.
	const window = 300
	rep, err := f.WhatIf(context.Background(), s.ID, api.WhatIfRequest{Seconds: window})
	if err != nil {
		t.Fatal(err)
	}
	fork, err := f.Fork(s.ID, api.ForkRequest{SnapshotID: rep.SnapshotID})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{s.ID, fork.Session.ID} {
		if _, err := f.RunSync(context.Background(), id, api.RunRequest{Seconds: window}); err != nil {
			t.Fatal(err)
		}
	}
	after, err := f.Get(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	child, err := f.Get(fork.Session.ID)
	if err != nil {
		t.Fatal(err)
	}
	if child.Done != after.Done || child.Ticks != after.Ticks || child.Emergencies != after.Emergencies {
		t.Errorf("fork done %d ticks %d, parent done %d ticks %d", child.Done, child.Ticks, after.Done, after.Ticks)
	}
	for _, b := range rep.Branches {
		if b.Policy != "optimal" {
			continue
		}
		if b.Completed != after.Done-before.Done || b.Ticks != after.Ticks || b.Emergencies != after.Emergencies-before.Emergencies {
			t.Errorf("optimal branch completed %d ticks %d, session completed %d ticks %d",
				b.Completed, b.Ticks, after.Done-before.Done, after.Ticks)
		}
		if b.Completed == 0 {
			t.Error("the what-if window completed nothing; the test lost its teeth")
		}
		return
	}
	t.Fatal("no optimal branch in the default what-if")
}
