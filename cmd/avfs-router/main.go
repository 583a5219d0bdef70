// Command avfs-router is the cluster front door for a fleet of
// avfs-server nodes: a stateless coordinator that places sessions with
// bounded-load rendezvous hashing, proxies per-session requests to the
// node holding them, aggregates fleet-wide listings and metrics, and
// partitions a cluster power budget across nodes proportional to
// demand. Nodes join by heartbeating (avfs-server -router ...); a node
// that stops heartbeating expires from membership after -node-ttl.
//
// Because the router holds no session state — placement is a pure
// function of session identity over the live membership, refined by a
// probe when a session moved — it can restart (or run N-way behind a
// plain TCP load balancer) without losing anything.
//
// Usage:
//
//	avfs-router [-addr :8090] [-budget-watts W] [-node-ttl 10s]
//	            [-rebalance-every D]
//
// Flags:
//
//	-addr             listen address (default :8090)
//	-budget-watts     cluster-wide power budget partitioned across nodes
//	                  by demand; 0 disables power capping
//	-node-ttl         heartbeat expiry for silent nodes (default 10s)
//	-rebalance-every  periodically migrate sessions back to their
//	                  hash-chosen home nodes (off when 0)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"avfs/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	budget := flag.Float64("budget-watts", 0, "cluster-wide power budget (0 = uncapped)")
	nodeTTL := flag.Duration("node-ttl", 10*time.Second, "heartbeat expiry for silent nodes")
	rebalanceEvery := flag.Duration("rebalance-every", 0, "periodic rebalance interval (0 = off)")
	flag.Parse()

	rt := cluster.NewRouter(cluster.RouterConfig{
		BudgetW:      *budget,
		HeartbeatTTL: *nodeTTL,
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	stopRebalance := make(chan struct{})
	if *rebalanceEvery > 0 {
		go func() {
			t := time.NewTicker(*rebalanceEvery)
			defer t.Stop()
			for {
				select {
				case <-stopRebalance:
					return
				case <-t.C:
					report := rt.Rebalance(context.Background())
					if len(report.Moved) > 0 || len(report.Errors) > 0 {
						fmt.Fprintf(os.Stderr, "avfs-router: rebalance moved %d of %d sessions (%d errors)\n",
							len(report.Moved), report.Sessions, len(report.Errors))
					}
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "avfs-router: listening on %s (budget %.0f W, node ttl %v)\n",
		*addr, *budget, *nodeTTL)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "avfs-router: %v\n", err)
			os.Exit(1)
		}
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "avfs-router: %v: shutting down\n", sig)
	}
	close(stopRebalance)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}
