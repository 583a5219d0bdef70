package cluster_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/cluster"
)

// serveRouter sends one request through a router's handler in process.
func serveRouter(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestHeartbeatValidation posts heartbeat sequences to a router with a
// 300 W budget. Malformed beats draw 400 invalid_request and change
// nothing; accepted ones, however large their demand, get finite shares,
// and after every beat the node list still decodes.
func TestHeartbeatValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		beats  []string
		status int                // of the last beat
		shares map[string]float64 // node budgets after the last beat; nil skips
		demand map[string]float64 // node demands after the last beat; nil skips
	}{
		{
			name:   "valid",
			beats:  []string{`{"name":"a","url":"http://a","demand_watts":100,"sessions":2}`},
			status: http.StatusOK,
			shares: map[string]float64{"a": 300},
		},
		{
			name:   "huge demand alone",
			beats:  []string{`{"name":"b","url":"http://b","demand_watts":1e308}`},
			status: http.StatusOK,
			shares: map[string]float64{"b": 300},
		},
		{
			name: "two huge demands overflow the sum",
			beats: []string{
				`{"name":"a","url":"http://a","demand_watts":1e308}`,
				`{"name":"b","url":"http://b","demand_watts":1e308}`,
			},
			status: http.StatusOK,
			shares: map[string]float64{"a": 150, "b": 150},
		},
		{
			name: "huge demand beside a small one",
			beats: []string{
				`{"name":"a","url":"http://a","demand_watts":100}`,
				`{"name":"b","url":"http://b","demand_watts":1e308}`,
			},
			status: http.StatusOK,
			shares: map[string]float64{"a": 3e-304, "b": 300},
		},
		{
			name:   "negative demand",
			beats:  []string{`{"name":"a","url":"http://a","demand_watts":-1}`},
			status: http.StatusBadRequest,
		},
		{
			name:   "negative sessions",
			beats:  []string{`{"name":"a","url":"http://a","sessions":-1}`},
			status: http.StatusBadRequest,
		},
		{
			name:   "missing url",
			beats:  []string{`{"name":"a","demand_watts":1}`},
			status: http.StatusBadRequest,
		},
		{
			name: "rejected beat leaves the node as it was",
			beats: []string{
				`{"name":"a","url":"http://a","demand_watts":100}`,
				`{"name":"a","url":"http://a","demand_watts":-5}`,
			},
			status: http.StatusBadRequest,
			shares: map[string]float64{"a": 300},
			demand: map[string]float64{"a": 100},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := cluster.NewRouter(cluster.RouterConfig{BudgetW: 300, HeartbeatTTL: time.Minute})
			h := rt.Handler()
			var last *httptest.ResponseRecorder
			var nl api.NodeList
			for _, beat := range tc.beats {
				last = serveRouter(h, http.MethodPost, "/cluster/v1/nodes", beat)
				rec := serveRouter(h, http.MethodGet, "/cluster/v1/nodes", "")
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &nl) != nil {
					t.Fatalf("after beat %s: GET /cluster/v1/nodes = %d %q", beat, rec.Code, rec.Body.Bytes())
				}
			}
			if last.Code != tc.status {
				t.Fatalf("last beat: status %d, want %d: %q", last.Code, tc.status, last.Body.Bytes())
			}
			if tc.status == http.StatusOK {
				var reply api.HeartbeatReply
				if err := json.Unmarshal(last.Body.Bytes(), &reply); err != nil {
					t.Fatalf("heartbeat reply %q does not decode: %v", last.Body.Bytes(), err)
				}
			} else {
				var e api.Error
				if err := json.Unmarshal(last.Body.Bytes(), &e); err != nil || e.Code != api.CodeInvalidRequest {
					t.Fatalf("rejection %q: code %q, want %q (%v)", last.Body.Bytes(), e.Code, api.CodeInvalidRequest, err)
				}
			}
			if tc.shares != nil && len(nl.Nodes) != len(tc.shares) {
				t.Fatalf("nodes %+v, want %d", nl.Nodes, len(tc.shares))
			}
			for _, n := range nl.Nodes {
				if want, ok := tc.shares[n.Name]; ok && math.Abs(n.BudgetW-want) > 1e-9*want {
					t.Errorf("node %s budget %v, want %v", n.Name, n.BudgetW, want)
				}
				if want, ok := tc.demand[n.Name]; ok && n.DemandW != want {
					t.Errorf("node %s demand %v, want %v", n.Name, n.DemandW, want)
				}
			}
		})
	}
}
