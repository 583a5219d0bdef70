package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"mime"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/cluster"
	"avfs/internal/service"
)

// fuzzSession is the node session the fuzzer's proxied paths address.
const fuzzSession = "s-fuzz"

// FuzzRouterHTTP sends a fuzzed method, path, X-Request-ID and
// X-AVFS-Node header and body through a fresh router's handler, in front
// of one in-process fleet node, each request under a 100 ms deadline. No
// request may panic the router, its own /cluster/v1 handlers may never
// answer 5xx, every 2xx JSON body must decode, and afterwards
// GET /cluster/v1/nodes must still answer a decodable node list.
//
// The router's client dials only the node, so heartbeats advertising
// other URLs register nodes that fail as unreachable. A rebalance is
// sent only while every registered node is the local one, because the
// node ships migrated sessions to its peers with its own client.
func FuzzRouterHTTP(f *testing.F) {
	for _, seed := range []struct {
		method, path, body string
	}{
		{http.MethodPost, "/cluster/v1/nodes", `{"name":"b","url":"http://b","demand_watts":40,"sessions":1}`},
		{http.MethodPost, "/cluster/v1/nodes", `{"name":"b","url":"http://b","demand_watts":1e308}`},
		{http.MethodPost, "/v1/sessions", `{"model":"xgene2","policy":"baseline"}`},
		{http.MethodGet, "/v1/sessions/" + fuzzSession, ``},
		{http.MethodPost, "/cluster/v1/nodes", ``},
		{http.MethodPost, "/cluster/v1/rebalance", ``},
		{http.MethodDelete, "/cluster/v1/nodes/n1", ``},
		{http.MethodPost, "/v1/sessions/" + fuzzSession + "/run", `{"seconds":1e308}`},
	} {
		f.Add(seed.method, seed.path, "req-1", "n1", []byte(seed.body))
	}

	fl := service.New(service.Config{NodeName: "n1", ReapEvery: -1, MaxSessions: 4})
	srv := httptest.NewServer(fl.Handler())
	nodeAddr := strings.TrimPrefix(srv.URL, "http://")
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		if addr != nodeAddr {
			return nil, fmt.Errorf("dial %s: only the test node is reachable", addr)
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}}
	client := &http.Client{Transport: transport, Timeout: 5 * time.Second}
	f.Cleanup(func() {
		transport.CloseIdleConnections()
		srv.Close()
		fl.Close()
	})

	f.Fuzz(func(t *testing.T, method, path, reqID, nodeHdr string, body []byte) {
		if !strings.HasPrefix(path, "/") {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, method, "http://router"+path, bytes.NewReader(body))
		if err != nil {
			return // not a request a client could send
		}
		req.Header.Set("X-Request-ID", reqID)
		req.Header.Set("X-AVFS-Node", nodeHdr)

		// A fresh router and a node holding just the seeded session, so
		// every input starts from the same state.
		for _, id := range fl.SessionIDs() {
			_ = fl.Delete(id)
		}
		if _, err := fl.Create(api.CreateSessionRequest{ID: fuzzSession, Model: "xgene2"}); err != nil {
			t.Fatalf("seed session: %v", err)
		}
		rt := cluster.NewRouter(cluster.RouterConfig{BudgetW: 300, HeartbeatTTL: time.Minute, Client: client})
		if _, err := rt.Registry().Heartbeat(api.NodeHeartbeat{Name: "n1", URL: srv.URL, Sessions: 1, DemandW: 10}); err != nil {
			t.Fatal(err)
		}
		mux := rt.Handler().(*http.ServeMux)

		_, pattern := mux.Handler(req)
		if pattern == "POST /cluster/v1/rebalance" {
			for _, n := range rt.Registry().Snapshot() {
				if n.URL != srv.URL {
					return
				}
			}
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code >= 500 && strings.Contains(pattern, " /cluster/v1/") {
			t.Fatalf("%s %s: router answered %d: %q", method, path, rec.Code, rec.Body.Bytes())
		}
		if rec.Code/100 == 2 {
			if mt, _, _ := mime.ParseMediaType(rec.Header().Get("Content-Type")); mt == "application/json" {
				var v any
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Fatalf("%s %s: %d body %q does not decode: %v", method, path, rec.Code, rec.Body.Bytes(), err)
				}
			}
		}

		after := httptest.NewRecorder()
		mux.ServeHTTP(after, httptest.NewRequest(http.MethodGet, "/cluster/v1/nodes", nil))
		var nl api.NodeList
		if after.Code != http.StatusOK || json.Unmarshal(after.Body.Bytes(), &nl) != nil {
			t.Fatalf("after %s %s: GET /cluster/v1/nodes = %d %q", method, path, after.Code, after.Body.Bytes())
		}
	})
}
