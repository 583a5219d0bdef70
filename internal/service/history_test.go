package service

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"avfs/api"
	"avfs/internal/snapshot"
	"avfs/internal/telemetry/export"
)

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
