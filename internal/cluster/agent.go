package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"avfs/api"
	"avfs/client"
	"avfs/internal/service"
)

// Agent is the node side of cluster membership: it keeps one fleet
// registered with the router through periodic heartbeats, applies the
// node's watt share of the cluster power budget to its sessions, and
// drains every session to its rendezvous-chosen peer on shutdown. The
// fleet itself stays cluster-unaware — the agent only uses its public
// surface (SessionDemands, SetSessionPowerCap, MigrateSession,
// SetRedirect).
type Agent struct {
	fleet     *service.Fleet
	routerURL string
	router    *client.Client
	name      string
	advertise string
	interval  time.Duration

	mu       sync.Mutex
	draining bool
	epoch    int64
	budgetW  float64
	peers    []api.Node

	stop chan struct{}
	done chan struct{}
}

// AgentConfig wires an Agent to its fleet and router.
type AgentConfig struct {
	Fleet *service.Fleet
	// RouterURL is the router's base URL (scheme://host:port).
	RouterURL string
	// Name is the node's cluster identity; it should match the fleet's
	// NodeName so session attribution and placement agree.
	Name string
	// AdvertiseURL is the base URL peers and the router reach this node
	// at.
	AdvertiseURL string
	// Interval is the heartbeat period (default 2s).
	Interval time.Duration
}

// NewAgent builds an agent; call Start to begin heartbeating.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Fleet == nil || cfg.RouterURL == "" || cfg.Name == "" || cfg.AdvertiseURL == "" {
		return nil, fmt.Errorf("agent needs fleet, router url, name and advertise url")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	return &Agent{
		fleet:     cfg.Fleet,
		routerURL: cfg.RouterURL,
		router:    client.New(cfg.RouterURL, &http.Client{Timeout: 10 * time.Second}),
		name:      cfg.Name,
		advertise: cfg.AdvertiseURL,
		interval:  cfg.Interval,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}, nil
}

// Start registers immediately, points the fleet's wrong-node redirects
// at the router, and begins the heartbeat loop.
func (a *Agent) Start() error {
	a.fleet.SetRedirect(a.routerURL)
	if err := a.Beat(context.Background()); err != nil {
		return fmt.Errorf("initial heartbeat: %w", err)
	}
	go a.loop()
	return nil
}

func (a *Agent) loop() {
	defer close(a.done)
	t := time.NewTicker(a.interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			_ = a.Beat(context.Background()) // transient router outage: retry next tick
		}
	}
}

// Stop ends the heartbeat loop (without deregistering — see Deregister).
func (a *Agent) Stop() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

// Beat sends one heartbeat and applies the reply: remembers the peer
// set and epoch, and repartitions the node's watt share across its
// sessions by demand through the PowerCap policy path.
func (a *Agent) Beat(ctx context.Context) error {
	a.mu.Lock()
	draining := a.draining
	a.mu.Unlock()
	_, demands := a.fleet.SessionDemands()
	var demandW float64 // summed in ID order, so the float sum is deterministic
	for _, d := range demands {
		demandW += d
	}
	reply, err := a.router.Heartbeat(ctx, api.NodeHeartbeat{
		Name:     a.name,
		URL:      a.advertise,
		Sessions: a.fleet.SessionCount(),
		DemandW:  demandW,
		Draining: draining,
	})
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.epoch = reply.Epoch
	a.budgetW = reply.BudgetW
	a.peers = reply.Nodes
	a.mu.Unlock()
	a.applyBudget(reply.BudgetW)
	return nil
}

// applyBudget partitions the node's watt share across sessions
// proportional to demand — the same rule the router applies across
// nodes, one level down — and installs each share as a per-session
// power cap. budget <= 0 lifts every cap.
func (a *Agent) applyBudget(budget float64) {
	ids, demands := a.fleet.SessionDemands()
	if budget <= 0 {
		for _, id := range ids {
			_ = a.fleet.SetSessionPowerCap(id, 0)
		}
		return
	}
	shares := PartitionBudget(budget, ids, demands)
	for _, id := range ids {
		w := shares[id]
		if w <= 0 {
			// Zero demand under a live budget: a tiny positive cap keeps the
			// session bounded until it draws power and earns a real share at
			// the next repartition. Never deliver "no cap" under a budget.
			w = 1e-3
		}
		_ = a.fleet.SetSessionPowerCap(id, w) // migrating sessions refuse; their cap shipped
	}
}

// SetDraining flips the node's drain flag and pushes it to the router
// immediately, so placement stops before the drain starts moving
// sessions.
func (a *Agent) SetDraining(ctx context.Context, on bool) error {
	a.mu.Lock()
	a.draining = on
	a.mu.Unlock()
	return a.Beat(ctx)
}

// Epoch and BudgetW report the last heartbeat reply.
func (a *Agent) Epoch() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

func (a *Agent) BudgetW() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budgetW
}

// Peers returns the last-seen membership view.
func (a *Agent) Peers() []api.Node {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]api.Node(nil), a.peers...)
}

// MigrateAll drains every local session to its rendezvous-chosen peer
// among the ready non-self nodes from the last heartbeat. It returns
// the completed moves; sessions that refuse (runs in flight) or whose
// ship fails are returned as errors and stay local.
func (a *Agent) MigrateAll(ctx context.Context) ([]api.Migration, []error) {
	peers := a.Peers()
	names := make([]string, 0, len(peers))
	urls := make(map[string]string, len(peers))
	for _, p := range peers {
		if p.Name == a.name || p.State != api.NodeReady {
			continue
		}
		names = append(names, p.Name)
		urls[p.Name] = p.URL
	}
	if len(names) == 0 {
		return nil, []error{fmt.Errorf("no ready peers to drain to")}
	}
	ring := NewRing(names)
	var moved []api.Migration
	var errs []error
	for _, id := range a.fleet.SessionIDs() {
		target := ring.Owner(id)
		mig, err := a.fleet.MigrateSession(ctx, api.MigrateRequest{
			Session:    id,
			TargetName: target,
			TargetURL:  urls[target],
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", id, err))
			continue
		}
		moved = append(moved, mig)
	}
	return moved, errs
}

// Deregister removes the node from the router's registry (clean
// shutdown; an unclean exit expires by heartbeat TTL instead).
func (a *Agent) Deregister(ctx context.Context) error {
	return a.router.Deregister(ctx, a.name)
}
