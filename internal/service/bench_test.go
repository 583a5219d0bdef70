package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/benchkit"
	"avfs/internal/service"
)

// benchFleet stands up a fleet + httptest server with one busy session and
// returns the session-read URL the gate hammers.
func benchFleet(b testing.TB) (*httptest.Server, string) {
	f := service.New(service.Config{ReapEvery: -1})
	ts := httptest.NewServer(f.Handler())
	b.Cleanup(func() {
		ts.Close()
		f.Close()
	})
	s, err := f.Create(api.CreateSessionRequest{Policy: "optimal"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Submit(s.ID, api.SubmitRequest{Benchmark: "CG", Threads: 8}); err != nil {
		b.Fatal(err)
	}
	if _, err := f.RunSync(context.Background(), s.ID, api.RunRequest{Seconds: 10}); err != nil {
		b.Fatal(err)
	}
	return ts, ts.URL + "/v1/sessions/" + s.ID
}

// BenchmarkSessionRead measures the full HTTP read path — mux, actor lock,
// snapshot, JSON encode — against a loaded session.
func BenchmarkSessionRead(b *testing.B) {
	ts, url := benchFleet(b)
	c := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := c.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}

// serviceBenchReport is the JSON summary scripts/check.sh records as
// BENCH_service.json.
type serviceBenchReport struct {
	ReadReqPerSec  float64 `json:"read_req_per_sec"`
	ReadNsPerReq   float64 `json:"read_ns_per_req"`
	FloorReqPerSec float64 `json:"floor_req_per_sec"`
	Requests       int64   `json:"requests"`
	Clients        int     `json:"clients"`
	benchkit.Env
}

// TestServiceThroughputBudget is the CI perf gate for the control plane:
// the session read path (GET /v1/sessions/{id} over real HTTP) must sustain
// at least 1k req/s even while the session carries a loaded machine. It
// only runs when AVFS_BENCH_SERVICE_OUT names the JSON report path
// (scripts/check.sh sets it) — timing assertions do not belong in the
// default test run.
func TestServiceThroughputBudget(t *testing.T) {
	out := os.Getenv("AVFS_BENCH_SERVICE_OUT")
	if out == "" {
		t.Skip("set AVFS_BENCH_SERVICE_OUT=<file> to run the control-plane throughput gate")
	}
	const floor = 1000.0
	clients := runtime.GOMAXPROCS(0)
	if clients > 8 {
		clients = 8
	}
	best := serviceBenchReport{FloorReqPerSec: floor, Clients: clients}
	for round := 0; round < 3; round++ {
		ts, url := benchFleet(t)
		r := measureReads(t, ts, url, clients, 500*time.Millisecond)
		r.FloorReqPerSec = floor
		t.Logf("round %d: %.0f req/s (%d requests, %d clients)", round, r.ReadReqPerSec, r.Requests, clients)
		if r.ReadReqPerSec > best.ReadReqPerSec {
			best = r
		}
		if best.ReadReqPerSec >= floor {
			break
		}
	}
	best.Env = benchkit.CurrentEnv()
	data, err := json.MarshalIndent(best, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("service read path: %.0f req/s (floor %.0f), report written to %s\n",
		best.ReadReqPerSec, floor, out)
	if best.ReadReqPerSec < floor {
		t.Errorf("session read path sustains %.0f req/s, want >= %.0f", best.ReadReqPerSec, floor)
	}
}

// measureReads hammers the session endpoint from `clients` goroutines for
// the given wall-clock window.
func measureReads(t *testing.T, ts *httptest.Server, url string, clients int, window time.Duration) serviceBenchReport {
	t.Helper()
	var count atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := ts.Client()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
				count.Add(1)
			}
		}()
	}
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	n := count.Load()
	return serviceBenchReport{
		ReadReqPerSec: float64(n) / elapsed,
		ReadNsPerReq:  elapsed * 1e9 / float64(max(n, 1)),
		Requests:      n,
		Clients:       clients,
	}
}
