package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/benchkit"
)

// clusterBenchReport is the JSON summary scripts/check.sh records as
// BENCH_cluster.json.
type clusterBenchReport struct {
	Nodes             int     `json:"nodes"`
	ReadReqPerSec     float64 `json:"read_req_per_sec"`
	TargetReqPerSec   float64 `json:"target_req_per_sec"`
	SingleNodeFloor   float64 `json:"single_node_floor_req_per_sec"`
	ScaleFactor       float64 `json:"scale_factor"`
	Requests          int64   `json:"requests"`
	Clients           int     `json:"clients"`
	Migrations        int     `json:"migrations"`
	MigrationP99MS    float64 `json:"migration_p99_ms"`
	MigrationMaxMS    float64 `json:"migration_max_ms"`
	MigrationBudgetMS float64 `json:"migration_budget_ms"`
	MigrationMeanMS   float64 `json:"migration_mean_ms"`
	UnreachableProbes int64   `json:"unreachable_probes"`
	benchkit.Env
}

// singleNodeFloor reads the single-node control-plane floor from the
// BENCH_service.json run earlier in the same check (path in
// AVFS_BENCH_SERVICE_JSON); absent that, the gate's documented floor.
func singleNodeFloor() float64 {
	const fallback = 1000.0
	path := os.Getenv("AVFS_BENCH_SERVICE_JSON")
	if path == "" {
		return fallback
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fallback
	}
	var rep struct {
		FloorReqPerSec float64 `json:"floor_req_per_sec"`
	}
	if json.Unmarshal(raw, &rep) != nil || rep.FloorReqPerSec <= 0 {
		return fallback
	}
	return rep.FloorReqPerSec
}

// TestClusterScaleBudget is the CI gate for horizontal scale-out: a
// 3-node fleet behind the router must sustain at least 2.5× the
// single-node read floor on router-proxied session reads, and
// drain-to-peer migrations of loaded sessions must complete under
// 250 ms at p99. It only runs when AVFS_BENCH_CLUSTER_OUT names the
// JSON report path (scripts/check.sh sets it).
func TestClusterScaleBudget(t *testing.T) {
	out := os.Getenv("AVFS_BENCH_CLUSTER_OUT")
	if out == "" {
		t.Skip("set AVFS_BENCH_CLUSTER_OUT=<file> to run the cluster scale gate")
	}
	ctx := context.Background()
	_, rts, nodes := newCluster(t, 3, 0)

	// Load every node with one busy session, created through the router
	// so the IDs carry real placements.
	var ids []string
	for len(ids) < 6 {
		var s api.Session
		status, _ := doJSON(t, http.MethodPost, rts.URL+"/v1/sessions",
			api.CreateSessionRequest{Policy: "optimal"}, &s)
		if status != 201 {
			t.Fatalf("create: HTTP %d", status)
		}
		ids = append(ids, s.ID)
	}
	for _, n := range nodes {
		for _, id := range n.fleet.SessionIDs() {
			if _, err := n.fleet.Submit(id, api.SubmitRequest{Benchmark: "CG", Threads: 8}); err != nil {
				t.Fatal(err)
			}
			if _, err := n.fleet.RunSync(ctx, id, api.RunRequest{Seconds: 10}); err != nil {
				t.Fatal(err)
			}
		}
	}

	floor := singleNodeFloor()
	target := 2.5 * floor
	clients := runtime.GOMAXPROCS(0) * 3
	if clients > 12 {
		clients = 12
	}
	rep := clusterBenchReport{
		Env:               benchkit.CurrentEnv(),
		Nodes:             3,
		TargetReqPerSec:   target,
		SingleNodeFloor:   floor,
		Clients:           clients,
		MigrationBudgetMS: 250,
	}

	// Read throughput through the router, best of 3 windows.
	for round := 0; round < 3; round++ {
		got, reqs := measureRouterReads(t, rts.URL, ids, clients, 500*time.Millisecond)
		t.Logf("round %d: %.0f req/s (%d requests, %d clients)", round, got, reqs, clients)
		if got > rep.ReadReqPerSec {
			rep.ReadReqPerSec = got
			rep.Requests = reqs
		}
		if rep.ReadReqPerSec >= target {
			break
		}
	}
	rep.ScaleFactor = rep.ReadReqPerSec / floor

	// Migration latency: bounce each loaded session across nodes and
	// collect the end-to-end durations (snapshot → ship → restore).
	var durs []float64
	for hop := 0; hop < 3; hop++ {
		for _, id := range ids {
			var src, dst *node
			for _, n := range nodes {
				if _, err := n.fleet.Get(id); err == nil {
					src = n
				}
			}
			if src == nil {
				t.Fatalf("session %s lost", id)
			}
			for _, n := range nodes {
				if n != src {
					dst = n
					break
				}
			}
			mig, err := src.fleet.MigrateSession(ctx, api.MigrateRequest{
				Session: id, TargetName: dst.name, TargetURL: dst.srv.URL,
			})
			if err != nil {
				t.Fatalf("migrate %s: %v", id, err)
			}
			durs = append(durs, mig.DurationMS)
		}
	}
	sort.Float64s(durs)
	rep.Migrations = len(durs)
	rep.MigrationMaxMS = durs[len(durs)-1]
	idx := int(float64(len(durs))*0.99+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(durs) {
		idx = len(durs) - 1
	}
	rep.MigrationP99MS = durs[idx]
	var sum float64
	for _, d := range durs {
		sum += d
	}
	rep.MigrationMeanMS = sum / float64(len(durs))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("cluster read path: %.0f req/s (target %.0f = 2.5 x %.0f single-node floor); "+
		"%d migrations p99 %.1f ms (budget 250 ms), report written to %s\n",
		rep.ReadReqPerSec, target, floor, rep.Migrations, rep.MigrationP99MS, out)

	if rep.ReadReqPerSec < target {
		t.Errorf("3-node router-proxied reads sustain %.0f req/s, want >= %.0f (2.5 x single-node floor %.0f)",
			rep.ReadReqPerSec, target, floor)
	}
	if rep.MigrationP99MS >= 250 {
		t.Errorf("migration p99 %.1f ms, want < 250 ms (max %.1f ms over %d moves)",
			rep.MigrationP99MS, rep.MigrationMaxMS, rep.Migrations)
	}
}

// measureRouterReads hammers router-proxied session reads round-robin
// over the given IDs from `clients` goroutines for one wall window.
func measureRouterReads(t *testing.T, base string, ids []string, clients int, window time.Duration) (float64, int64) {
	t.Helper()
	var count atomic.Int64
	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/v1/sessions/" + ids[i%len(ids)])
				i++
				if err != nil {
					failed.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
					continue
				}
				count.Add(1)
			}
		}(c)
	}
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if f := failed.Load(); f > 0 {
		t.Fatalf("%d router reads failed during the measurement window", f)
	}
	return float64(count.Load()) / elapsed, count.Load()
}
