package service

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"avfs/api"
	texport "avfs/internal/telemetry/export"
)

var updateTraceGolden = flag.Bool("update", false, "rewrite the decision-trace golden files")

// TestDecisionTraceGolden pins the bytes of every rendered trace surface
// of seeded X-Gene 3 sessions: the JSONL decision stream, the /trace
// body and the machine event log lines. The run covers V/F changes,
// class flips, the guard/reconfigure/settle phases and place, migrate
// and finish events, so a change to how records are stored or rendered
// that moves one byte fails here.
func TestDecisionTraceGolden(t *testing.T) {
	for _, policy := range []string{"baseline", "optimal"} {
		t.Run(policy, func(t *testing.T) {
			jsonl, trace, events := goldenTraceSession(t, policy, 24)
			checkTraceGolden(t, policy+".jsonl", jsonl)
			checkTraceGolden(t, policy+".trace", trace)
			checkTraceGolden(t, policy+".events", events)
		})
	}
}

// goldenTraceSession runs one session through seeded waves of submissions
// and returns its JSONL stream, /trace body and event log lines.
func goldenTraceSession(t *testing.T, policy string, seed int64) (jsonl, trace, events []byte) {
	t.Helper()
	f, _ := testFleet(t, Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	sess := mustCreate(t, f, api.CreateSessionRequest{Model: "xgene3", Policy: policy})
	s, err := f.lookup(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sink := texport.NewJSONL(&stream)
	s.mu.Lock()
	s.m.EnableEventLog()
	sink.Attach(s.tracer)
	s.mu.Unlock()

	rng := rand.New(rand.NewSource(seed))
	parallel := []string{"CG", "EP", "FT", "IS", "LU", "MG"}
	serial := []string{"mcf", "namd", "lbm"}
	for wave := 0; wave < 3; wave++ {
		for i := 0; i < 4; i++ {
			req := api.SubmitRequest{Benchmark: serial[rng.Intn(len(serial))], Threads: 1}
			if rng.Intn(2) == 0 {
				req = api.SubmitRequest{Benchmark: parallel[rng.Intn(len(parallel))], Threads: 2 << rng.Intn(3)}
			}
			if _, err := f.Submit(sess.ID, req); err != nil {
				t.Fatalf("submit %+v: %v", req, err)
			}
		}
		if _, err := f.RunSync(context.Background(), sess.ID, api.RunRequest{Seconds: 12}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.RunSync(context.Background(), sess.ID, api.RunRequest{Seconds: 600, UntilIdle: true}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/trace?since=0", ts.URL, sess.ID))
	if err != nil {
		t.Fatal(err)
	}
	trace, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace: status %d, %v", resp.StatusCode, err)
	}

	var lines bytes.Buffer
	s.mu.Lock()
	for _, e := range s.m.Events() {
		lines.WriteString(e.String())
		lines.WriteByte('\n')
	}
	s.mu.Unlock()
	return stream.Bytes(), trace, lines.Bytes()
}

// checkTraceGolden compares got against testdata/trace_golden/<name>,
// rewriting the file under -update.
func checkTraceGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "trace_golden", name)
	if *updateTraceGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/service -run DecisionTraceGolden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s drifted from its golden file at line %d:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted from its golden file: %d lines, want %d", name, len(gl), len(wl))
	}
}
