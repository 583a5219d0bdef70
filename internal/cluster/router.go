package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"avfs/api"
	"avfs/client"
	"avfs/internal/telemetry"
	"avfs/internal/telemetry/export"
)

// Router is the stateless cluster front door. It owns no session state
// — only a membership registry fed by node heartbeats and a placement
// cache that is a pure performance hint (every entry can be
// reconstructed by probing nodes in rendezvous order, so a restarted
// router converges without coordination).
//
// Responsibilities:
//   - place new sessions on nodes with bounded-load rendezvous hashing;
//   - proxy per-session requests to the holding node, tagging replies
//     with X-AVFS-Node;
//   - aggregate GET /v1/sessions and GET /metrics across the fleet;
//   - partition the cluster power budget across nodes by demand and
//     hand each node its watt share in heartbeat replies (a heartbeat
//     with a negative session count or a negative or non-finite demand
//     is refused with 400 invalid_request, and any accepted demand, even
//     1e308 W, yields finite shares);
//   - rebalance: drain sessions back to their hash-chosen home nodes.
type Router struct {
	cfg    RouterConfig
	reg    *Registry
	client *http.Client

	mu     sync.Mutex
	cache  map[string]string // session ID -> node name (hint, not truth)
	deltas map[string]int    // placements since the node's last heartbeat

	seq atomic.Uint64

	tel         *telemetry.Registry
	mPlacements *telemetry.Counter
	mProxied    *telemetry.Counter
	mProbes     *telemetry.Counter
	mMoves      *telemetry.Counter
	mNodeErrs   *telemetry.Counter
	mRetries    *telemetry.Counter
}

// RouterConfig parameterizes a Router; the zero value works.
type RouterConfig struct {
	// BudgetW is the cluster-wide power budget in watts, partitioned
	// across nodes proportional to demand. 0 disables power capping.
	BudgetW float64
	// HeartbeatTTL expires nodes that stop checking in (default 10s).
	HeartbeatTTL time.Duration
	// Clock is injectable for tests; nil means time.Now.
	Clock func() time.Time
	// Client carries every node request, typed calls and byte relays
	// alike; nil gets a 30s-timeout default.
	Client *http.Client
}

// loadFactor is the classic bounded-load setting: placement skips a node
// holding more than loadFactor times the mean session count.
const loadFactor = 1.25

// NewRouter builds a router with the given configuration.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	r := &Router{
		cfg:    cfg,
		reg:    NewRegistry(cfg.HeartbeatTTL, cfg.Clock),
		client: cfg.Client,
		cache:  map[string]string{},
		deltas: map[string]int{},
		tel:    telemetry.NewRegistry(),
	}
	r.mPlacements = r.tel.Counter("avfs_router_placements_total", "Sessions placed on nodes.")
	r.mProxied = r.tel.Counter("avfs_router_proxied_total", "Requests proxied to nodes.")
	r.mProbes = r.tel.Counter("avfs_router_probe_fallbacks_total", "Placement-cache misses resolved by probing nodes in rendezvous order.")
	r.mMoves = r.tel.Counter("avfs_router_rebalance_moves_total", "Sessions migrated by rebalance.")
	r.mNodeErrs = r.tel.Counter("avfs_router_node_errors_total", "Node requests that failed (unreachable or transport error).")
	r.mRetries = r.tel.Counter("avfs_router_retries_total", "Idempotent GETs retried against the next rendezvous candidate after a connect failure or 5xx answer.")
	r.tel.Gauge("avfs_router_nodes", "Live registered nodes.", func() float64 {
		return float64(len(r.reg.Snapshot()))
	})
	r.tel.Gauge("avfs_router_budget_watts", "Cluster-wide power budget.", func() float64 {
		return r.cfg.BudgetW
	})
	return r
}

// Registry exposes the membership view (tests and the CLI status path).
func (rt *Router) Registry() *Registry { return rt.reg }

// ring builds the placement ring over ready nodes.
func (rt *Router) ring() (*Ring, []api.Node) {
	ready := rt.reg.Ready()
	names := make([]string, len(ready))
	for i, n := range ready {
		names[i] = n.Name
	}
	return NewRing(names), ready
}

// load reports a node's effective session count: last heartbeat plus
// placements the router has routed there since (the heartbeat resets
// the delta, because the node's own count then includes them).
func (rt *Router) load(nodes []api.Node) func(string) int {
	counts := make(map[string]int, len(nodes))
	for _, n := range nodes {
		counts[n.Name] = n.Sessions
	}
	rt.mu.Lock()
	for name, d := range rt.deltas {
		counts[name] += d
	}
	rt.mu.Unlock()
	return func(name string) int { return counts[name] }
}

// place picks the home node for a session ID: bounded-load rendezvous
// over the ready set.
func (rt *Router) place(id string) (api.Node, error) {
	ring, ready := rt.ring()
	if len(ready) == 0 {
		return api.Node{}, fmt.Errorf("no ready nodes")
	}
	total := 0
	for _, n := range ready {
		total += n.Sessions
	}
	capacity := int(loadFactor*float64(total+1)/float64(len(ready))) + 1
	owner := ring.OwnerBounded(id, rt.load(ready), capacity)
	for _, n := range ready {
		if n.Name == owner {
			return n, nil
		}
	}
	return api.Node{}, fmt.Errorf("no ready nodes")
}

// mintID mints a router-scoped session ID, making a session's home node
// a pure function of its identity.
func (rt *Router) mintID() string {
	return fmt.Sprintf("s-c%06d", rt.seq.Add(1))
}

// cachePut / cacheDrop / cacheGet manage the placement hint.
func (rt *Router) cachePut(id, node string) {
	rt.mu.Lock()
	rt.cache[id] = node
	rt.mu.Unlock()
}

func (rt *Router) cacheDrop(id string) {
	rt.mu.Lock()
	delete(rt.cache, id)
	rt.mu.Unlock()
}

func (rt *Router) cacheGet(id string) (string, bool) {
	rt.mu.Lock()
	n, ok := rt.cache[id]
	rt.mu.Unlock()
	return n, ok
}

// Handler returns the router's HTTP surface: the cluster control plane
// under /cluster/v1 plus a fleet-wide view of the node v1 API.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()

	// --- cluster control plane ---

	mux.HandleFunc("POST /cluster/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		var hb api.NodeHeartbeat
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&hb); err != nil {
			writeAPIError(w, http.StatusBadRequest, api.CodeInvalidRequest, "bad heartbeat body: "+err.Error())
			return
		}
		epoch, err := rt.reg.Heartbeat(hb)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, api.CodeInvalidRequest, err.Error())
			return
		}
		rt.mu.Lock()
		rt.deltas[hb.Name] = 0
		rt.mu.Unlock()
		shares := rt.partition()
		rt.reg.SetBudgets(shares)
		writeJSON(w, http.StatusOK, api.HeartbeatReply{
			Epoch:   epoch,
			BudgetW: shares[hb.Name],
			Nodes:   rt.reg.Snapshot(),
		})
	})

	mux.HandleFunc("GET /cluster/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.NodeList{
			Nodes:   rt.reg.Snapshot(),
			Epoch:   rt.reg.Epoch(),
			BudgetW: rt.cfg.BudgetW,
		})
	})

	mux.HandleFunc("DELETE /cluster/v1/nodes/{name}", func(w http.ResponseWriter, r *http.Request) {
		rt.reg.Remove(r.PathValue("name"))
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /cluster/v1/rebalance", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.Rebalance(r.Context()))
	})

	// --- fleet-wide v1 surface ---

	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("GET /v1/sessions", rt.handleList)
	mux.HandleFunc("/v1/sessions/{id}", rt.handleProxy)
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", rt.handleProxy)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if len(rt.reg.Ready()) == 0 {
			writeAPIError(w, http.StatusServiceUnavailable, api.CodeDraining, "no ready nodes registered")
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

// partition computes every ready node's share of the cluster budget,
// proportional to last-reported demand.
func (rt *Router) partition() map[string]float64 {
	ready := rt.reg.Ready()
	names := make([]string, len(ready))
	demands := make([]float64, len(ready))
	for i, n := range ready {
		names[i], demands[i] = n.Name, n.DemandW
	}
	return PartitionBudget(rt.cfg.BudgetW, names, demands)
}

// handleCreate places a session and forwards the create to its home
// node. The router mints the ID (unless the caller pre-assigned one) so
// placement is a pure function of identity; on a full or draining
// refusal it walks the rendezvous preference order before giving up.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeInvalidRequest, err.Error())
		return
	}
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &req); err != nil {
			writeAPIError(w, http.StatusBadRequest, api.CodeInvalidRequest, "bad JSON body: "+err.Error())
			return
		}
	}
	if req.ID == "" {
		req.ID = rt.mintID()
	}
	body, err := json.Marshal(&req)
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}

	ring, ready := rt.ring()
	if len(ready) == 0 {
		writeAPIError(w, http.StatusServiceUnavailable, api.CodeDraining, "no ready nodes registered")
		return
	}
	urls := make(map[string]string, len(ready))
	for _, n := range ready {
		urls[n.Name] = n.URL
	}
	preferred, err := rt.place(req.ID)
	if err != nil {
		writeAPIError(w, http.StatusServiceUnavailable, api.CodeDraining, err.Error())
		return
	}
	// Preferred node first, then the remaining preference order: a node
	// that refuses with fleet_full/draining (or is unreachable) is not
	// the end of the story while peers have room.
	order := []string{preferred.Name}
	for _, name := range ring.Ranked(req.ID) {
		if name != preferred.Name {
			order = append(order, name)
		}
	}
	var lastStatus int
	var lastBody []byte
	var lastHeader http.Header
	for _, name := range order {
		status, hdr, respBody, err := rt.forward(r, http.MethodPost, urls[name]+"/v1/sessions", body)
		if err != nil {
			rt.mNodeErrs.Inc()
			continue
		}
		if status == http.StatusServiceUnavailable && errCodeOf(respBody) != "" {
			lastStatus, lastBody, lastHeader = status, respBody, hdr
			continue // fleet_full / draining / closed: try the next node
		}
		if status/100 == 2 {
			rt.cachePut(req.ID, name)
			rt.mu.Lock()
			rt.deltas[name]++
			rt.mu.Unlock()
			rt.mPlacements.Inc()
		}
		relay(w, status, hdr, respBody)
		return
	}
	if lastStatus != 0 {
		relay(w, lastStatus, lastHeader, lastBody)
		return
	}
	writeAPIError(w, http.StatusBadGateway, api.CodeInternal, "every ready node is unreachable")
}

// handleList aggregates GET /v1/sessions across the fleet: fan out the
// same cursor/filters to every node, merge-sort by ID, cut at the limit.
// Nodes that cannot be reached are named in the reply's unreachable list
// instead of silently shrinking the page. A refusal is not an outage:
// when every node that answered refused with the same 4xx (a bad filter,
// say), the router relays it.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts := client.ListOptions{Cursor: q.Get("cursor"), State: q.Get("state"), Policy: q.Get("policy")}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeAPIError(w, http.StatusBadRequest, api.CodeInvalidRequest, "limit must be a non-negative integer")
			return
		}
		opts.Limit = n
	}
	nodes := rt.reg.Snapshot() // draining nodes still hold sessions
	out := api.SessionList{Sessions: []api.Session{}}
	truncated, paged := false, false
	var refused []string   // nodes that answered with a 4xx
	var refusal *api.Error // their common refusal; nil once two differ
	for _, n := range nodes {
		page, err := client.New(n.URL, rt.client).ListSessionsPage(r.Context(), opts)
		var ae *api.Error
		if errors.As(err, &ae) && ae.Status >= 400 && ae.Status < 500 {
			if len(refused) == 0 || (refusal != nil && ae.Status == refusal.Status && ae.Code == refusal.Code) {
				refusal = ae
			} else {
				refusal = nil
			}
			refused = append(refused, n.Name)
			continue
		}
		if err != nil {
			rt.mNodeErrs.Inc()
			out.Unreachable = append(out.Unreachable, n.Name)
			continue
		}
		paged = true
		if page.NextCursor != "" {
			truncated = true
		}
		out.Sessions = append(out.Sessions, page.Sessions...)
	}
	if refusal != nil && !paged {
		writeAPIError(w, refusal.Status, refusal.Code, refusal.Message)
		return
	}
	// Refusals that disagree, or beside a node's page, leave a node out
	// of the page as an outage does.
	rt.mNodeErrs.Add(int64(len(refused)))
	out.Unreachable = append(out.Unreachable, refused...)
	sort.Slice(out.Sessions, func(i, j int) bool { return out.Sessions[i].ID < out.Sessions[j].ID })
	if opts.Limit > 0 && len(out.Sessions) > opts.Limit {
		out.Sessions = out.Sessions[:opts.Limit]
		truncated = true
	}
	if truncated && len(out.Sessions) > 0 {
		out.NextCursor = out.Sessions[len(out.Sessions)-1].ID
	}
	writeJSON(w, http.StatusOK, out)
}

// handleProxy forwards a per-session request to the node holding it.
// The placement cache is tried first; on a miss — or when the cached
// node answers 404 session_not_found, which happens after migrations
// and for forked children minted on their parent's node — the router
// probes nodes in rendezvous preference order and re-caches the hit.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	nodes := rt.reg.Snapshot()
	if len(nodes) == 0 {
		writeAPIError(w, http.StatusServiceUnavailable, api.CodeDraining, "no nodes registered")
		return
	}
	urls := make(map[string]string, len(nodes))
	names := make([]string, 0, len(nodes))
	for _, n := range nodes {
		urls[n.Name] = n.URL
		names = append(names, n.Name)
	}
	var order []string
	if cached, ok := rt.cacheGet(id); ok {
		if _, live := urls[cached]; live {
			order = append(order, cached)
		}
	}
	for _, name := range NewRing(names).Ranked(id) {
		if len(order) > 0 && name == order[0] {
			continue
		}
		order = append(order, name)
	}

	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, api.CodeInvalidRequest, err.Error())
			return
		}
	}
	target := r.URL.RequestURI()

	probed := false
	retried := false
	var notFoundStatus int
	var notFoundHeader http.Header
	var notFoundBody []byte
	var failStatus int
	var failHeader http.Header
	var failBody []byte
	for i, name := range order {
		if i > 0 {
			probed = true
		}
		status, hdr, respBody, err := rt.forward(r, r.Method, urls[name]+target, body)
		if err != nil {
			rt.mNodeErrs.Inc()
			if r.Method == http.MethodGet && !retried && i+1 < len(order) {
				retried = true
				rt.mRetries.Inc()
			}
			continue
		}
		if status == http.StatusNotFound && errCodeOf(respBody) == api.CodeSessionNotFound {
			rt.cacheDrop(id)
			notFoundStatus, notFoundHeader, notFoundBody = status, hdr, respBody
			continue
		}
		if status >= 500 && r.Method == http.MethodGet && !retried && i+1 < len(order) {
			// Hedge an idempotent read once against the next rendezvous
			// candidate: a node answering 5xx may be mid-restart while a
			// peer already hosts the session (post-migration). Non-GET
			// requests are relayed as-is — the node may have applied them.
			retried = true
			rt.mRetries.Inc()
			failStatus, failHeader, failBody = status, hdr, respBody
			continue
		}
		rt.cachePut(id, name)
		rt.mProxied.Inc()
		if probed {
			rt.mProbes.Inc()
		}
		if r.Method == http.MethodDelete && r.PathValue("rest") == "" && status/100 == 2 {
			rt.cacheDrop(id)
		}
		relay(w, status, hdr, respBody)
		return
	}
	if failStatus != 0 {
		// The hedged-away 5xx came from the likeliest owner; the 404s, if
		// any, from nodes that never knew the session. Relay the former.
		relay(w, failStatus, failHeader, failBody)
		return
	}
	if notFoundStatus != 0 {
		relay(w, notFoundStatus, notFoundHeader, notFoundBody)
		return
	}
	writeAPIError(w, http.StatusBadGateway, api.CodeInternal, "no node answered for session "+id)
}

// handleMetrics merges every node's Prometheus exposition into one:
// each sample re-tagged with a node label, families re-grouped so each
// TYPE line appears exactly once (naive concatenation would repeat TYPE
// lines, which the exposition format forbids). The router's own
// avfs_router_* families come first; node family names never collide
// with them.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type fam struct {
		kind    string
		samples []export.ParsedMetric
	}
	fams := map[string]*fam{}
	var order []string
	for _, n := range rt.reg.Snapshot() {
		text, err := client.New(n.URL, rt.client).Metrics(r.Context(), "")
		if err != nil {
			rt.mNodeErrs.Inc()
			continue
		}
		ms, typed, err := export.ParsePrometheusTyped(strings.NewReader(text))
		if err != nil {
			rt.mNodeErrs.Inc()
			continue
		}
		for _, m := range ms {
			family := m.Name
			kind, ok := typed[family]
			if !ok {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					base := strings.TrimSuffix(m.Name, suffix)
					if base != m.Name && typed[base] == "histogram" {
						family, kind = base, "histogram"
						break
					}
				}
			}
			f, seen := fams[family]
			if !seen {
				f = &fam{kind: kind}
				fams[family] = f
				order = append(order, family)
			}
			labels := make(map[string]string, len(m.Labels)+1)
			for k, v := range m.Labels {
				labels[k] = v
			}
			labels["node"] = n.Name
			f.samples = append(f.samples, export.ParsedMetric{Name: m.Name, Labels: labels, Value: m.Value})
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	_ = export.Prometheus(&buf, rt.tel)
	sort.Strings(order)
	for _, family := range order {
		f := fams[family]
		fmt.Fprintf(&buf, "# TYPE %s %s\n", family, f.kind)
		for _, m := range f.samples {
			export.WriteSample(&buf, m.Name, m.Labels, m.Value)
		}
	}
	_, _ = w.Write(buf.Bytes())
}

// forward performs one node request for the byte relays (handleCreate,
// handleProxy), which copy node headers and bodies verbatim. It tags the
// request X-AVFS-Proxied so the node answers in place instead of
// bouncing the caller back through the router with a redirect.
func (rt *Router) forward(src *http.Request, method, url string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(src.Context(), method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("X-AVFS-Proxied", "router")
	if ct := src.Header.Get("Content-Type"); ct != "" && body != nil {
		req.Header.Set("Content-Type", ct)
	} else if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if acc := src.Header.Get("Accept"); acc != "" {
		req.Header.Set("Accept", acc)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// relay copies a node response to the caller, preserving the headers
// that carry contract semantics (content type, node attribution,
// retry hints).
func relay(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	for _, k := range []string{"Content-Type", "X-AVFS-Node", "Retry-After", "Content-Disposition"} {
		if v := hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// errCodeOf extracts the machine-readable code from a wire error body,
// or "" if the body isn't one.
func errCodeOf(body []byte) string {
	var e api.Error
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Code
}

// writeJSON writes a JSON success body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeAPIError writes a wire error with the given status and code.
func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&api.Error{Code: code, Message: msg})
}

// Rebalance walks every node's sessions and migrates each one whose
// rendezvous owner differs from where it lives — after a join this is
// exactly the expected K/n sessions the new node now wins, and for a
// draining node it is all of them. Sessions with runs in flight refuse
// migration (the node answers conflict); they are reported as errors
// and picked up by the next rebalance.
func (rt *Router) Rebalance(ctx context.Context) api.RebalanceReport {
	nodes := rt.reg.Snapshot()
	ring, _ := rt.ring()
	report := api.RebalanceReport{Nodes: len(nodes), Moved: []api.Migration{}}
	readyURLs := map[string]string{}
	for _, n := range nodes {
		if n.State == api.NodeReady {
			readyURLs[n.Name] = n.URL
		}
	}
	for _, n := range nodes {
		nc := client.New(n.URL, rt.client)
		var ids []string
		err := nc.EachSession(ctx, client.ListOptions{Limit: 500}, func(s api.Session) error {
			ids = append(ids, s.ID)
			return nil
		})
		if err != nil {
			report.Errors = append(report.Errors, fmt.Sprintf("%s: list: %v", n.Name, err))
			continue
		}
		for _, id := range ids {
			report.Sessions++
			owner := ring.Owner(id)
			if owner == "" {
				report.Errors = append(report.Errors, fmt.Sprintf("%s: no ready owner", id))
				continue
			}
			if owner == n.Name && n.State == api.NodeReady {
				continue
			}
			if owner == n.Name {
				// Draining node that is still the hash owner: pick the best
				// ready alternative.
				owner = ""
				for _, cand := range ring.Ranked(id) {
					if cand != n.Name {
						owner = cand
						break
					}
				}
				if owner == "" {
					report.Errors = append(report.Errors, fmt.Sprintf("%s: no peer to drain to", id))
					continue
				}
			}
			mig, err := nc.MigrateSession(ctx, api.MigrateRequest{
				Session:    id,
				TargetName: owner,
				TargetURL:  readyURLs[owner],
			})
			if err != nil {
				report.Errors = append(report.Errors, fmt.Sprintf("%s: %v", id, err))
				continue
			}
			rt.cachePut(id, owner)
			rt.mMoves.Inc()
			report.Moved = append(report.Moved, mig)
		}
	}
	return report
}
