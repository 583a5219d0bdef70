package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"avfs/api"
	"avfs/client"
	"avfs/internal/cluster"
	"avfs/internal/service"
)

// node is one fleet served over loopback HTTP.
type node struct {
	name  string
	fleet *service.Fleet
	srv   *httptest.Server
	agent *cluster.Agent
}

// stack is the system under test of the HTTP workloads: fleets in their
// default configuration, optionally behind the cluster router, and the
// load generator's HTTP client.
type stack struct {
	nodes  []*node
	router *httptest.Server
	tr     *tracer
	hc     *http.Client
}

// newStack starts nNodes fleets. routed puts a router in front — default
// configuration apart from the client it reaches nodes with, whose
// transport the tracer wraps — and registers every node through its
// heartbeat agent.
func newStack(nNodes int, routed bool, tr *tracer) (*stack, error) {
	// Each closed-loop client has at most one request in flight, so the
	// load needs, and is capped at, one connection per client and host.
	load := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, IdleConnTimeout: time.Minute}
	st := &stack{tr: tr, hc: &http.Client{Transport: tr.transport("client", load), Timeout: time.Minute}}
	if routed {
		up := http.DefaultTransport.(*http.Transport).Clone()
		rt := cluster.NewRouter(cluster.RouterConfig{
			Client: &http.Client{Timeout: 30 * time.Second, Transport: tr.transport("upstream", up)},
		})
		st.router = httptest.NewServer(tr.wrap("router", rt.Handler()))
	}
	for i := 0; i < nNodes; i++ {
		var cfg service.Config
		if routed {
			cfg.NodeName = fmt.Sprintf("n%d", i+1)
		}
		f := service.New(cfg)
		n := &node{name: cfg.NodeName, fleet: f, srv: httptest.NewServer(tr.wrap("node", f.Handler()))}
		st.nodes = append(st.nodes, n)
		if !routed {
			continue
		}
		a, err := cluster.NewAgent(cluster.AgentConfig{
			Fleet: f, RouterURL: st.router.URL, Name: n.name, AdvertiseURL: n.srv.URL,
		})
		if err == nil {
			err = a.Start()
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("register node %s: %w", n.name, err)
		}
		n.agent = a
	}
	return st, nil
}

// close stops the agents, servers and fleets, waiting for each.
func (st *stack) close() {
	for _, n := range st.nodes {
		if n.agent != nil {
			n.agent.Stop()
		}
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, n := range st.nodes {
		n.srv.Close()
		n.fleet.Close()
	}
	st.hc.CloseIdleConnections()
}

func (st *stack) nodeClient(i int) *client.Client { return client.New(st.nodes[i].srv.URL, st.hc) }

func (st *stack) routerClient() *client.Client { return client.New(st.router.URL, st.hc) }

// nodeNamed returns the node called name, nil if there is none.
func (st *stack) nodeNamed(name string) *node {
	for _, n := range st.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// migrate drain-migrates a session from the node holding it to the other
// one. The router proxies only tenant routes, so the request goes to the
// source node's cluster surface, as the node agent's drain does; the
// router learns of the move through its placement-cache probe.
func (st *stack) migrate(ctx context.Context, id, from string) error {
	src := st.nodeNamed(from)
	if src == nil {
		return fmt.Errorf("session %s: unknown node %q", id, from)
	}
	dst := st.nodes[0]
	if dst == src {
		dst = st.nodes[1]
	}
	_, err := client.New(src.srv.URL, st.hc).MigrateSession(ctx, api.MigrateRequest{
		Session: id, TargetName: dst.name, TargetURL: dst.srv.URL,
	})
	return err
}

// warmEstimates pays the first node's one-time surrogate fits, for both
// chip models, during set-up, as a serving node's first queries would.
func (st *stack) warmEstimates(ctx context.Context) error {
	c := st.nodeClient(0)
	for _, m := range models {
		if _, err := c.Estimate(ctx, api.EstimateRequest{Model: m, Benchmark: "CG", Threads: 2}); err != nil {
			return fmt.Errorf("warm %s estimator: %w", m, err)
		}
	}
	return nil
}

// counters snapshots the program's exported counters: every node's
// /metrics summed, plus the router's own avfs_router_* families.
func (st *stack) counters(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range st.nodes {
		m, err := scrape(ctx, st.hc, n.srv.URL+"/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	if st.router != nil {
		m, err := scrape(ctx, st.hc, st.router.URL+"/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			if strings.HasPrefix(k, "avfs_router_") {
				out[k] = v
			}
		}
	}
	return out, nil
}

// tracedHalves runs a traced run of an HTTP workload: an untraced half
// window (request-class latencies, tracing baseline), then a traced half
// between two snapshots of the exported counters. mark, if set, runs next
// to each snapshot for counters of the workload's own. The spans fold into
// out.table, which sets the per-layer metrics both HTTP workloads share.
func (st *stack) tracedHalves(ctx context.Context, o options, out *outcome,
	window func(context.Context, time.Duration) (*recorder, time.Duration),
	mark func(context.Context) error) error {
	snapshot := func() (map[string]float64, error) {
		m, err := st.counters(ctx)
		if err == nil && mark != nil {
			err = mark(ctx)
		}
		return m, err
	}
	half := o.window() / 2
	var base *recorder
	var baseElapsed time.Duration
	rss, err := sampleRSS(func() { base, baseElapsed = window(ctx, half) })
	if err != nil {
		return err
	}
	out.metrics["rss_p50_mb"] = quantile(rss, 0.5)
	base.classMetrics(out.metrics)
	before, err := snapshot()
	if err != nil {
		return err
	}
	st.tr.on.Store(true)
	traced, tracedElapsed := window(ctx, half)
	st.tr.on.Store(false)
	after, err := snapshot()
	if err != nil {
		return err
	}
	out.attempted += base.attempted + traced.attempted
	out.failed += base.failed + traced.failed
	tab := fold(st.tr.copySpans())
	out.table = tab
	tab.setMetrics(out.metrics)
	setCounterMetrics(out.metrics, before, after)
	st.tr.setCallMetrics(out.metrics)
	out.metrics["wire.resp_bytes"] = ratio(float64(st.tr.respBytes.Load()), float64(tab.ops))
	out.metrics["trace.overhead_ratio"] = overhead(base, baseElapsed, traced, tracedElapsed)
	return nil
}

// setCounterMetrics sets the per-layer metrics read as deltas of the
// program's exported counters across the traced window.
func setCounterMetrics(m, before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	m["router.probe_fallbacks"] = d("avfs_router_probe_fallbacks_total")
	m["router.retries"] = d("avfs_router_retries_total")
	m["router.node_errors"] = d("avfs_router_node_errors_total")
	m["pool.queue_wait_ms"] = 1e3 * ratio(d("avfs_pool_queue_wait_seconds_sum"), d("avfs_pool_queue_wait_seconds_count"))
	m["pool.run_ms"] = 1e3 * ratio(d("avfs_pool_run_seconds_sum"), d("avfs_pool_run_seconds_count"))
	m["pool.rejected"] = d("avfs_fleet_runs_rejected_total")
	m["gang.shared_tick_ratio"] = ratio(d("avfs_sim_batch_shared_ticks_total"), d("avfs_sim_batch_ticks_total"))
	hits, misses := d("avfs_sim_batch_memo_hits_total"), d("avfs_sim_batch_memo_misses_total")
	m["sim.memo_hit_ratio"] = ratio(hits, hits+misses)
	m["estimate.queries"] = d("avfs_surrogate_queries_total")
}
