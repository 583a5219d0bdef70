// Command avfs-server hosts the AVFS fleet control plane: many independent
// simulated (machine, daemon) sessions behind the HTTP/JSON v1 API — the
// network surface of the paper's long-running system service (Sec. V),
// scaled out to a fleet. See docs/API.md for the endpoint contract and
// avfs/client for the Go consumer.
//
// Usage:
//
//	avfs-server [-addr :8080] [-max-sessions 256] [-ttl 15m]
//	            [-workers N] [-queue M] [-chunk 1.0] [-snapshot-dir DIR]
//	            [-drain-timeout 2m] [-access-log PATH] [-slow-ms 1000]
//	            [-slo-window 1m] [-pprof-addr ADDR] [-no-trace]
//	            [-router URL -node NAME -advertise URL [-heartbeat 2s]]
//
// Flags:
//
//	-addr          listen address (default :8080)
//	-max-sessions  live-session cap; creation beyond it is 429 fleet_full
//	-ttl           idle-session reaping deadline (default 15m)
//	-workers       concurrent runs across all sessions (default GOMAXPROCS)
//	-queue         admitted-but-waiting runs before 429 busy (default 4x)
//	-chunk         simulated seconds a run holds its session lock for
//	-snapshot-dir  persist session snapshots under this directory, so fork
//	               and what-if can resolve snapshot ids across restarts
//	-drain-timeout graceful drain budget before shutdown is forced
//	               (default 2m)
//	-access-log    JSONL access log: a file path, or "-" for stderr
//	-slow-ms       slow-request threshold in milliseconds; slow requests
//	               are flagged in the access log and mirrored to stderr
//	-slo-window    rolling window for /v1/sessions/{id}/slo quantiles
//	-pprof-addr    serve net/http/pprof on a SEPARATE listener (e.g.
//	               localhost:6060); off unless set, and deliberately not
//	               mounted on the public API address
//	-no-trace      disable spans and SLO tracking (the metrics registry
//	               and access log stay on)
//	-router        register with a cluster router at this base URL (see
//	               cmd/avfs-router); requires -node and -advertise
//	-node          this node's cluster name; session IDs and the
//	               X-AVFS-Node header carry it
//	-advertise     base URL peers and the router reach this node at
//	-heartbeat     router heartbeat period (default 2s)
//
// On SIGTERM/SIGINT the server drains gracefully: the listener stops, new
// sessions and runs are rejected with 503 + Retry-After, and every
// admitted run — including queued async jobs — finishes before exit. A
// second signal forces shutdown, aborting in-flight runs at their next
// tick-batch commit. When registered with a router, the drain also
// migrates every session to its rendezvous-chosen ready peer and
// deregisters, so a scale-in loses no session state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"avfs/internal/cluster"
	"avfs/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxSessions := flag.Int("max-sessions", 256, "live-session cap")
	ttl := flag.Duration("ttl", 15*time.Minute, "idle-session reaping deadline")
	workers := flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "run admission queue depth (0 = 4x workers)")
	chunk := flag.Float64("chunk", 1.0, "simulated seconds per session-lock hold")
	snapshotDir := flag.String("snapshot-dir", "", "persist session snapshots under this directory (default: in-process only)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful drain budget before forcing shutdown")
	accessLog := flag.String("access-log", "", `JSONL access log path ("-" = stderr, "" = off)`)
	slowMS := flag.Int("slow-ms", 1000, "slow-request threshold in milliseconds")
	sloWindow := flag.Duration("slo-window", time.Minute, "rolling window for session SLO quantiles")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (off when empty)")
	noTrace := flag.Bool("no-trace", false, "disable request spans and SLO tracking")
	routerURL := flag.String("router", "", "cluster router base URL (off when empty)")
	nodeName := flag.String("node", "", "cluster node name (required with -router)")
	advertiseURL := flag.String("advertise", "", "base URL this node is reachable at (required with -router)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "router heartbeat period")
	flag.Parse()
	if *routerURL != "" && (*nodeName == "" || *advertiseURL == "") {
		fmt.Fprintln(os.Stderr, "avfs-server: -router requires -node and -advertise")
		os.Exit(2)
	}

	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		lf, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "avfs-server: access log: %v\n", err)
			os.Exit(1)
		}
		defer lf.Close()
		accessW = lf
	}

	fleet := service.New(service.Config{
		MaxSessions: *maxSessions,
		SessionTTL:  *ttl,
		Workers:     *workers,
		Queue:       *queue,
		RunChunk:    *chunk,
		SnapshotDir: *snapshotDir,
		AccessLog:   accessW,
		SlowLog:     os.Stderr,
		SlowRequest: time.Duration(*slowMS) * time.Millisecond,
		SLOWindow:   *sloWindow,
		NoTrace:     *noTrace,
		NodeName:    *nodeName,
	})

	if *pprofAddr != "" {
		// Profiling stays off the public API listener: the pprof surface
		// exposes heap contents and must only bind somewhere private.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			fmt.Fprintf(os.Stderr, "avfs-server: pprof on %s\n", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "avfs-server: pprof: %v\n", err)
			}
		}()
		defer psrv.Close()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           fleet.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "avfs-server: listening on %s (max %d sessions, ttl %v)\n",
		*addr, *maxSessions, *ttl)

	var agent *cluster.Agent
	if *routerURL != "" {
		var err error
		agent, err = cluster.NewAgent(cluster.AgentConfig{
			Fleet:        fleet,
			RouterURL:    *routerURL,
			Name:         *nodeName,
			AdvertiseURL: *advertiseURL,
			Interval:     *heartbeat,
		})
		if err == nil {
			err = agent.Start()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "avfs-server: cluster registration: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "avfs-server: registered with router %s as %s (%s)\n",
			*routerURL, *nodeName, *advertiseURL)
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "avfs-server: %v\n", err)
			os.Exit(1)
		}
		return
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "avfs-server: %v: draining (again to force)\n", sig)
	}

	// Graceful drain: stop the listener, finish in-flight requests and
	// admitted runs. A second signal (or the drain budget) forces exit.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "avfs-server: %v: forcing shutdown\n", sig)
			cancel()
		case <-drainCtx.Done():
		}
	}()

	// With a router: announce draining first so placement stops before
	// the listener does, then (after local runs finish) hand every
	// session to a peer and leave the membership.
	if agent != nil {
		if err := agent.SetDraining(drainCtx, true); err != nil {
			fmt.Fprintf(os.Stderr, "avfs-server: drain announcement: %v\n", err)
		}
	}
	_ = srv.Shutdown(drainCtx)
	if err := fleet.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "avfs-server: drain incomplete: %v\n", err)
	} else {
		fmt.Fprintln(os.Stderr, "avfs-server: drained cleanly")
	}
	if agent != nil {
		moved, errs := agent.MigrateAll(drainCtx)
		fmt.Fprintf(os.Stderr, "avfs-server: migrated %d sessions to peers (%d failures)\n",
			len(moved), len(errs))
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "avfs-server:   %v\n", err)
		}
		agent.Stop()
		if err := agent.Deregister(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "avfs-server: deregister: %v\n", err)
		}
	}
	fleet.Close()
}
