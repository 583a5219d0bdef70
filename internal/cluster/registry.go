package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"avfs/api"
)

// Registry is the router's view of cluster membership. Nodes announce
// themselves with heartbeats carrying their URL, session count and
// power demand; a node whose heartbeat goes stale past the TTL is
// marked down and drops out of placement. Every membership change —
// join, leave, drain toggle, expiry — bumps an epoch so agents can
// detect that the peer set shifted without diffing lists.
type Registry struct {
	mu    sync.Mutex
	ttl   time.Duration
	clock func() time.Time
	epoch int64
	nodes map[string]*member
}

type member struct {
	name     string
	url      string
	sessions int
	demandW  float64
	budgetW  float64
	draining bool
	lastBeat time.Time
}

// NewRegistry builds a registry with the given heartbeat TTL. clock is
// injectable for tests; nil means time.Now.
func NewRegistry(ttl time.Duration, clock func() time.Time) *Registry {
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	if clock == nil {
		clock = time.Now
	}
	return &Registry{ttl: ttl, clock: clock, nodes: map[string]*member{}}
}

// Heartbeat registers or refreshes a node and returns the current
// epoch. A first beat, a URL change, a rejoin after expiry, or a
// drain-state flip all bump the epoch; a plain refresh does not. A beat
// without a name or URL, with a negative session count, or with a
// negative or non-finite demand is rejected and changes nothing.
func (r *Registry) Heartbeat(hb api.NodeHeartbeat) (int64, error) {
	if hb.Name == "" || hb.URL == "" {
		return 0, fmt.Errorf("heartbeat needs name and url")
	}
	if hb.Sessions < 0 {
		return 0, fmt.Errorf("heartbeat sessions %d is negative", hb.Sessions)
	}
	if hb.DemandW < 0 || math.IsInf(hb.DemandW, 0) || math.IsNaN(hb.DemandW) {
		return 0, fmt.Errorf("heartbeat demand_watts %v is not a finite non-negative number", hb.DemandW)
	}
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	m, ok := r.nodes[hb.Name]
	if !ok {
		m = &member{name: hb.Name}
		r.nodes[hb.Name] = m
		r.epoch++
	}
	if m.url != hb.URL || m.draining != hb.Draining {
		r.epoch++
	}
	m.url = hb.URL
	m.sessions = hb.Sessions
	m.demandW = hb.DemandW
	m.draining = hb.Draining
	m.lastBeat = now
	return r.epoch, nil
}

// Remove deregisters a node (clean shutdown). Unknown names are a
// no-op so deregistration is idempotent.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[name]; ok {
		delete(r.nodes, name)
		r.epoch++
	}
}

// expireLocked drops members whose heartbeat is stale past the TTL.
func (r *Registry) expireLocked(now time.Time) {
	for name, m := range r.nodes {
		if now.Sub(m.lastBeat) > r.ttl {
			delete(r.nodes, name)
			r.epoch++
		}
	}
}

// SetBudgets records the per-node watt shares computed by the budget
// partition so the node list reports them. Unknown names are skipped.
func (r *Registry) SetBudgets(shares map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, w := range shares {
		if m, ok := r.nodes[name]; ok {
			m.budgetW = w
		}
	}
}

// Epoch returns the current membership epoch.
func (r *Registry) Epoch() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Snapshot returns every live member as wire nodes, sorted by name,
// after expiring stale ones.
func (r *Registry) Snapshot() []api.Node {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	out := make([]api.Node, 0, len(r.nodes))
	for _, m := range r.nodes {
		state := api.NodeReady
		if m.draining {
			state = api.NodeDraining
		}
		out = append(out, api.Node{
			Name:            m.name,
			URL:             m.url,
			State:           state,
			Sessions:        m.sessions,
			DemandW:         m.demandW,
			BudgetW:         m.budgetW,
			HeartbeatAgeSec: now.Sub(m.lastBeat).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ready returns the nodes eligible for new placements: live and not
// draining.
func (r *Registry) Ready() []api.Node {
	all := r.Snapshot()
	out := all[:0]
	for _, n := range all {
		if n.State == api.NodeReady {
			out = append(out, n)
		}
	}
	return out
}

// URL resolves a node name to its announced base URL; ok is false for
// unknown or expired nodes.
func (r *Registry) URL(name string) (string, bool) {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	m, ok := r.nodes[name]
	if !ok {
		return "", false
	}
	return m.url, true
}
