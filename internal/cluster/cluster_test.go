package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/cluster"
	"avfs/internal/service"
	"avfs/internal/telemetry/export"
)

// node is one fleet behind real HTTP, with its cluster agent.
type node struct {
	name  string
	fleet *service.Fleet
	srv   *httptest.Server
	agent *cluster.Agent
}

// newCluster stands up a router and n nodes, each registered by one
// initial heartbeat. Agents don't run their loops — tests call Beat
// explicitly so membership changes are deterministic.
func newCluster(t *testing.T, n int, budgetW float64) (*cluster.Router, *httptest.Server, []*node) {
	t.Helper()
	rt := cluster.NewRouter(cluster.RouterConfig{BudgetW: budgetW, HeartbeatTTL: time.Minute})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	nodes := make([]*node, n)
	for i := range nodes {
		name := fmt.Sprintf("n%d", i+1)
		f := service.New(service.Config{NodeName: name, ReapEvery: -1})
		ts := httptest.NewServer(f.Handler())
		a, err := cluster.NewAgent(cluster.AgentConfig{
			Fleet: f, RouterURL: rts.URL, Name: name, AdvertiseURL: ts.URL,
		})
		if err != nil {
			t.Fatalf("NewAgent(%s): %v", name, err)
		}
		f.SetRedirect(rts.URL)
		if err := a.Beat(context.Background()); err != nil {
			t.Fatalf("initial beat %s: %v", name, err)
		}
		nodes[i] = &node{name: name, fleet: f, srv: ts, agent: a}
		t.Cleanup(func() { ts.Close(); f.Close() })
	}
	return rt, rts, nodes
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad body %s: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestRouterEndToEnd drives the full cluster surface over real HTTP:
// placement spread, fleet-wide pagination, proxying with node
// attribution, wrong-node redirects, drain + rebalance migration,
// placement-cache self-healing, and aggregated metrics.
func TestRouterEndToEnd(t *testing.T) {
	_, rts, nodes := newCluster(t, 3, 0)
	ctx := context.Background()

	// Readiness reflects membership.
	if status, _ := doJSON(t, http.MethodGet, rts.URL+"/readyz", nil, nil); status != 200 {
		t.Fatalf("readyz with 3 nodes = %d", status)
	}

	// Create a dozen sessions through the router; placement must spread.
	perNode := map[string]int{}
	var ids []string
	for i := 0; i < 12; i++ {
		var s api.Session
		status, hdr := doJSON(t, http.MethodPost, rts.URL+"/v1/sessions",
			api.CreateSessionRequest{Policy: "baseline"}, &s)
		if status != 201 {
			t.Fatalf("create %d: HTTP %d", i, status)
		}
		if s.Node == "" || hdr.Get("X-AVFS-Node") != s.Node {
			t.Fatalf("create %d: node attribution missing (body %q, header %q)",
				i, s.Node, hdr.Get("X-AVFS-Node"))
		}
		if !strings.HasPrefix(s.ID, "s-c") {
			t.Fatalf("router did not mint the ID: %q", s.ID)
		}
		perNode[s.Node]++
		ids = append(ids, s.ID)
	}
	if len(perNode) < 2 {
		t.Fatalf("12 sessions all landed on one node: %+v", perNode)
	}
	for name, c := range perNode {
		if c > 8 {
			t.Fatalf("bounded-load placement let %s take %d of 12: %+v", name, c, perNode)
		}
	}

	// Fleet-wide pagination: walk pages of 5, expect all 12 exactly once.
	seen := map[string]bool{}
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatalf("pagination did not terminate")
		}
		var page api.SessionList
		u := rts.URL + "/v1/sessions?limit=5"
		if cursor != "" {
			u += "&cursor=" + cursor
		}
		if status, _ := doJSON(t, http.MethodGet, u, nil, &page); status != 200 {
			t.Fatalf("list: HTTP %d", status)
		}
		if len(page.Unreachable) != 0 {
			t.Fatalf("nodes unreachable: %v", page.Unreachable)
		}
		for i, s := range page.Sessions {
			if seen[s.ID] {
				t.Fatalf("session %s appeared twice across pages", s.ID)
			}
			seen[s.ID] = true
			if i > 0 && page.Sessions[i-1].ID >= s.ID {
				t.Fatalf("page not sorted: %s >= %s", page.Sessions[i-1].ID, s.ID)
			}
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != 12 {
		t.Fatalf("pagination returned %d sessions, want 12", len(seen))
	}

	// Filters pass through: everything is baseline, nothing is busy.
	var filtered api.SessionList
	doJSON(t, http.MethodGet, rts.URL+"/v1/sessions?policy=baseline&state=idle", nil, &filtered)
	if len(filtered.Sessions) != 12 {
		t.Fatalf("policy/state filter returned %d, want 12", len(filtered.Sessions))
	}

	// Proxy a session read; run a workload through the router.
	var s0 api.Session
	status, hdr := doJSON(t, http.MethodGet, rts.URL+"/v1/sessions/"+ids[0], nil, &s0)
	if status != 200 || hdr.Get("X-AVFS-Node") == "" {
		t.Fatalf("proxy read: HTTP %d, node %q", status, hdr.Get("X-AVFS-Node"))
	}
	if status, _ := doJSON(t, http.MethodPost, rts.URL+"/v1/sessions/"+ids[0]+"/processes",
		api.SubmitRequest{Benchmark: "CG", Threads: 8}, nil); status != 201 {
		t.Fatalf("submit via router: HTTP %d", status)
	}
	var rr api.RunResult
	if status, _ := doJSON(t, http.MethodPost, rts.URL+"/v1/sessions/"+ids[0]+"/run",
		api.RunRequest{Seconds: 2}, &rr); status != 200 || rr.Ticks == 0 {
		t.Fatalf("run via router: HTTP %d, %+v", status, rr)
	}

	// Wrong-node 307: ask a node that does NOT host ids[0] directly. The
	// default client follows the redirect to the router, which proxies to
	// the right node.
	var wrong *node
	for _, n := range nodes {
		if n.name != s0.Node {
			wrong = n
			break
		}
	}
	var viaRedirect api.Session
	status, _ = doJSON(t, http.MethodGet, wrong.srv.URL+"/v1/sessions/"+ids[0], nil, &viaRedirect)
	if status != 200 || viaRedirect.ID != ids[0] {
		t.Fatalf("redirect chase: HTTP %d, got %q want %q", status, viaRedirect.ID, ids[0])
	}

	// Self-healing placement cache: move a session behind the router's
	// back, then read it through the router — the rendezvous probe finds
	// its new home.
	var src *node
	for _, n := range nodes {
		if n.name == s0.Node {
			src = n
		}
	}
	var dst *node
	for _, n := range nodes {
		if n != src {
			dst = n
			break
		}
	}
	if _, err := src.fleet.MigrateSession(ctx, api.MigrateRequest{
		Session: ids[0], TargetName: dst.name, TargetURL: dst.srv.URL,
	}); err != nil {
		t.Fatalf("manual migrate: %v", err)
	}
	var moved api.Session
	status, hdr = doJSON(t, http.MethodGet, rts.URL+"/v1/sessions/"+ids[0], nil, &moved)
	if status != 200 || hdr.Get("X-AVFS-Node") != dst.name {
		t.Fatalf("post-move proxy: HTTP %d via %q, want %q", status, hdr.Get("X-AVFS-Node"), dst.name)
	}

	// Drain a node and rebalance: its sessions migrate to ready peers
	// and stay reachable through the router.
	drained := nodes[2]
	if err := drained.agent.SetDraining(ctx, true); err != nil {
		t.Fatalf("SetDraining: %v", err)
	}
	had := drained.fleet.SessionCount()
	var report api.RebalanceReport
	if status, _ := doJSON(t, http.MethodPost, rts.URL+"/cluster/v1/rebalance", nil, &report); status != 200 {
		t.Fatalf("rebalance: HTTP %d", status)
	}
	if len(report.Errors) != 0 {
		t.Fatalf("rebalance errors: %v", report.Errors)
	}
	if drained.fleet.SessionCount() != 0 {
		t.Fatalf("draining node still holds %d sessions (had %d, moved %d)",
			drained.fleet.SessionCount(), had, len(report.Moved))
	}
	for _, id := range ids {
		if status, _ := doJSON(t, http.MethodGet, rts.URL+"/v1/sessions/"+id, nil, nil); status != 200 {
			t.Fatalf("session %s unreachable after rebalance: HTTP %d", id, status)
		}
	}

	// Aggregated metrics: one valid exposition, node-labeled fleet
	// families plus the router's own.
	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := export.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("aggregated exposition invalid: %v", err)
	}
	if _, ok := export.Find(ms, "avfs_router_nodes", nil); !ok {
		t.Fatalf("router families missing from aggregate")
	}
	if _, ok := export.Find(ms, "avfs_fleet_sessions_created_total", map[string]string{"node": "n1"}); !ok {
		t.Fatalf("node-labeled fleet families missing from aggregate: %v", export.Names(ms))
	}

	// Deregister drops a node from the membership view.
	if err := nodes[0].agent.Deregister(ctx); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	var nl api.NodeList
	doJSON(t, http.MethodGet, rts.URL+"/cluster/v1/nodes", nil, &nl)
	for _, n := range nl.Nodes {
		if n.Name == nodes[0].name {
			t.Fatalf("deregistered node still listed: %+v", nl.Nodes)
		}
	}
}

// TestRouterListRelaysRefusal: a filter every node refuses is the
// caller's error, not an outage. The router relays the nodes' 4xx and
// counts no node error; a node that is down is still named unreachable.
func TestRouterListRelaysRefusal(t *testing.T) {
	_, rts, nodes := newCluster(t, 2, 0)
	nodeErrs := func() float64 {
		t.Helper()
		resp, err := http.Get(rts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		ms, err := export.ParsePrometheus(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := export.Find(ms, "avfs_router_node_errors_total", nil)
		if !ok {
			t.Fatal("avfs_router_node_errors_total missing")
		}
		return m.Value
	}
	refused := func(query string, wantStatus int, wantCode string) {
		t.Helper()
		resp, err := http.Get(rts.URL + "/v1/sessions?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e api.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: bad body: %v", query, err)
		}
		if resp.StatusCode != wantStatus || e.Code != wantCode || e.Message == "" {
			t.Errorf("%s: HTTP %d %+v, want %d %s with a message", query, resp.StatusCode, e, wantStatus, wantCode)
		}
	}

	before := nodeErrs()
	refused("state=bogus", http.StatusBadRequest, api.CodeInvalidRequest)
	refused("policy=bogus", http.StatusBadRequest, api.CodeUnknownPolicy)
	if after := nodeErrs(); after != before {
		t.Errorf("refused filters counted node errors: %v -> %v", before, after)
	}

	// A stopped node is an outage: listed unreachable and counted, and
	// the node that answers still decides a refusal.
	nodes[1].srv.Close()
	var page api.SessionList
	if status, _ := doJSON(t, http.MethodGet, rts.URL+"/v1/sessions", nil, &page); status != http.StatusOK {
		t.Fatalf("list with a stopped node: HTTP %d", status)
	}
	if len(page.Unreachable) != 1 || page.Unreachable[0] != nodes[1].name {
		t.Errorf("unreachable = %v, want [%s]", page.Unreachable, nodes[1].name)
	}
	refused("state=bogus", http.StatusBadRequest, api.CodeInvalidRequest)
}

// TestClusterPowerBudget pins the two-level partition: the router
// splits the cluster budget across nodes by demand, each agent splits
// its share across sessions, and the caps land on the wire as
// power_cap_watts.
func TestClusterPowerBudget(t *testing.T) {
	_, rts, nodes := newCluster(t, 2, 100)
	ctx := context.Background()

	// One busy session on n1, nothing on n2.
	s, err := nodes[0].fleet.Create(api.CreateSessionRequest{Policy: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].fleet.Submit(s.ID, api.SubmitRequest{Benchmark: "CG", Threads: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].fleet.RunSync(ctx, s.ID, api.RunRequest{Seconds: 5}); err != nil {
		t.Fatal(err)
	}

	// Two beats: the first reports demand, the second collects the share
	// partitioned from it.
	for i := 0; i < 2; i++ {
		for _, n := range nodes {
			if err := n.agent.Beat(ctx); err != nil {
				t.Fatalf("beat %s: %v", n.name, err)
			}
		}
	}
	if nodes[0].agent.BudgetW() <= 0 {
		t.Fatalf("demanding node got no budget share")
	}
	// The only demanding session holds (approximately all of) the node's
	// share as its cap.
	got, err := nodes[0].fleet.Get(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.PowerCapW <= 0 {
		t.Fatalf("session cap not applied: %+v", got)
	}
	if diff := math.Abs(got.PowerCapW - nodes[0].agent.BudgetW()); diff > 1e-9 {
		t.Fatalf("sole session cap %v != node share %v", got.PowerCapW, nodes[0].agent.BudgetW())
	}

	// The node list reports the partition.
	var nl api.NodeList
	doJSON(t, http.MethodGet, rts.URL+"/cluster/v1/nodes", nil, &nl)
	var total float64
	for _, n := range nl.Nodes {
		total += n.BudgetW
	}
	if math.Abs(total-100) > 1e-6 {
		t.Fatalf("node budget shares sum to %v, want 100: %+v", total, nl.Nodes)
	}
}

// TestAgentMigrateAll drains every session to ready peers on shutdown.
func TestAgentMigrateAll(t *testing.T) {
	_, _, nodes := newCluster(t, 3, 0)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := nodes[0].fleet.Create(api.CreateSessionRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[0].agent.SetDraining(ctx, true); err != nil {
		t.Fatal(err)
	}
	moved, errs := nodes[0].agent.MigrateAll(ctx)
	if len(errs) != 0 {
		t.Fatalf("MigrateAll errors: %v", errs)
	}
	if len(moved) != 5 || nodes[0].fleet.SessionCount() != 0 {
		t.Fatalf("moved %d, %d left behind", len(moved), nodes[0].fleet.SessionCount())
	}
	if nodes[1].fleet.SessionCount()+nodes[2].fleet.SessionCount() != 5 {
		t.Fatalf("peers hold %d+%d sessions, want 5 total",
			nodes[1].fleet.SessionCount(), nodes[2].fleet.SessionCount())
	}
}
