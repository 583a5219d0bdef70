package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"avfs/api"
	"avfs/internal/snapshot"
)

// sessionRoutes are the session-mutating endpoints FuzzSessionHTTP drives,
// each with the api type its 2xx body decodes into. A route with a suffix
// addresses the seeded session (/v1/sessions/{id}<suffix>); the one
// without creates a session.
var sessionRoutes = []struct {
	method, suffix string
	body           func() any
}{
	{http.MethodPost, "", func() any { return new(api.Session) }},
	{http.MethodPost, "/processes", func() any { return new(api.Process) }},
	{http.MethodPost, "/run", nil}, // api.RunResult, or api.Job when async
	{http.MethodPut, "/policy", func() any { return new(api.Session) }},
	{http.MethodPost, "/fork", func() any { return new(api.Fork) }},
}

// FuzzSessionHTTP sends arbitrary JSON bodies through the fleet's HTTP
// handler to one of the session-mutating endpoints (create, submit, run,
// policy, fork) of one seeded session, each under a 100 ms deadline. No
// body may panic the server or draw a 5xx, except the wire contract's 504
// for a run whose request deadline expired, and every 2xx body must
// decode into its api type with finite numbers. Sessions the fuzzer creates or
// forks are deleted and async jobs cancelled, so the fleet stays small.
func FuzzSessionHTTP(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"model":"xgene2","policy":"baseline"}`},
		{0, `{"model":"xgene3","tick_seconds":1e-300,"poll_seconds":1e308,"ttl_seconds":-1}`},
		{0, `{"model":"z80"}`},
		{1, `{"benchmark":"CG","threads":8}`},
		{1, `{"benchmark":"namd","threads":4}`},
		{1, `{"benchmark":"lbm","threads":-3}`},
		{2, `{"seconds":1}`},
		{2, `{"seconds":1e308}`},
		{2, `{"seconds":3600,"until_idle":true}`},
		{2, `{"seconds":5,"async":true}`},
		{2, `{"seconds":-1}`},
		{2, `{"seconds":1e300,"async":true}`},
		{3, `{"policy":"safe-vmin"}`},
		{3, `{"policy":"optimal","power_cap_watts":7}`},
		{3, `{"power_cap_watts":-1e308}`},
		{4, `{"policy":"placement","ttl_seconds":60}`},
		{4, `{"snapshot_id":"nope"}`},
		{4, ``},
		{3, `[`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	fl, _ := testFleet(f, Config{})
	id := seedSession(f, fl, "optimal").ID
	h := fl.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		rt := sessionRoutes[int(route)%len(sessionRoutes)]
		path := "/v1/sessions"
		if rt.suffix != "" {
			path += "/" + id + rt.suffix
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(rt.method, path, bytes.NewReader(body)).WithContext(ctx))
		if rec.Code == http.StatusGatewayTimeout && ctx.Err() != nil &&
			bytes.Contains(rec.Body.Bytes(), []byte(`"code":"`+api.CodeDeadline+`"`)) {
			return // the request's own deadline expired mid-run
		}
		if rec.Code >= 500 {
			t.Fatalf("%s %s: status %d for body %q: %s", rt.method, path, rec.Code, body, rec.Body.Bytes())
		}
		if rec.Code < 200 || rec.Code >= 300 {
			return
		}
		var out any
		switch {
		case rt.body != nil:
			out = rt.body()
		case rec.Code == http.StatusAccepted:
			out = new(api.Job)
		default:
			out = new(api.RunResult)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: %d body %q does not decode: %v", rt.method, path, rec.Code, rec.Body.Bytes(), err)
		}
		if !finiteNumbers(reflect.ValueOf(out)) {
			t.Fatalf("%s %s: non-finite number in %+v", rt.method, path, out)
		}
		switch v := out.(type) {
		case *api.Session:
			if v.ID != id {
				_ = fl.Delete(v.ID)
			}
		case *api.Fork:
			_ = fl.Delete(v.Session.ID)
		case *api.Job:
			_, _ = fl.CancelJob(id, v.ID)
		}
	})
}

// finiteNumbers reports whether every float reachable from v is finite.
func finiteNumbers(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return !math.IsNaN(v.Float()) && !math.IsInf(v.Float(), 0)
	case reflect.Pointer, reflect.Interface:
		return v.IsNil() || finiteNumbers(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !finiteNumbers(v.Field(i)) {
				return false
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !finiteNumbers(v.Index(i)) {
				return false
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if !finiteNumbers(it.Value()) {
				return false
			}
		}
	}
	return true
}

// FuzzImportHTTP posts arbitrary bodies to the cluster import endpoint,
// the trust boundary for sessions a peer node ships in. No body may panic
// the server or draw a 5xx, and the fleet never holds more than
// MaxSessions sessions. A session that imports must answer GET and a
// 0.1 s run without a 5xx; only the run request's own 100 ms deadline
// may expire (the wire contract's 504), since a shipped tick can be
// arbitrarily fine. Imported sessions are deleted again, so the fleet
// stays small.
func FuzzImportHTTP(f *testing.F) {
	fl, _ := testFleet(f, Config{MaxSessions: 3})
	seeded := seedSession(f, fl, "optimal").ID
	s, err := fl.lookup(seeded)
	if err != nil {
		f.Fatal(err)
	}
	s.mu.Lock()
	st, err := s.captureStateLocked()
	s.mu.Unlock()
	if err != nil {
		f.Fatal(err)
	}
	id, state, err := snapshot.Encode(st)
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []api.ImportRequest{
		{Session: "imported", SnapshotID: id, State: state},
		{Session: "imported", TTLSeconds: 60, State: state},
		{Session: "imported", SnapshotID: "sha256:bogus", State: state},
		{Session: seeded, State: state},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(``))
	f.Add([]byte(`{"session":"imported","state":{}}`))
	h := fl.Handler()
	serve := func(t *testing.T, method, path string, body []byte, timeout time.Duration) *httptest.ResponseRecorder {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx))
		if rec.Code == http.StatusGatewayTimeout && ctx.Err() != nil &&
			bytes.Contains(rec.Body.Bytes(), []byte(`"code":"`+api.CodeDeadline+`"`)) {
			return rec // the request's own deadline expired mid-run
		}
		if rec.Code >= 500 {
			t.Fatalf("%s %s: status %d for body %q: %s", method, path, rec.Code, body, rec.Body.Bytes())
		}
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(t, http.MethodPost, "/v1/cluster/import", body, time.Minute)
		fl.mu.Lock()
		live := len(fl.sessions)
		fl.mu.Unlock()
		if live > fl.cfg.MaxSessions {
			t.Fatalf("%d sessions live, MaxSessions %d", live, fl.cfg.MaxSessions)
		}
		if rec.Code < 200 || rec.Code >= 300 {
			return
		}
		var got api.Session
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%d body %q does not decode: %v", rec.Code, rec.Body.Bytes(), err)
		}
		defer func() { _ = fl.Delete(got.ID) }()
		path := "/v1/sessions/" + url.PathEscape(got.ID)
		if rec := serve(t, http.MethodGet, path, nil, time.Minute); rec.Code != http.StatusOK {
			t.Fatalf("GET imported session %q: status %d: %s", got.ID, rec.Code, rec.Body.Bytes())
		}
		serve(t, http.MethodPost, path+"/run", []byte(`{"seconds":0.1}`), 100*time.Millisecond)
	})
}
