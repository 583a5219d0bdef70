package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"avfs/api"
	"avfs/internal/sim"
	"avfs/internal/telemetry"
	"avfs/internal/telemetry/export"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

// statusRule maps one error identity onto an HTTP status and a stable wire
// code. First match wins; the table is ordered most-specific-first.
type statusRule struct {
	target error
	status int
	code   string
	// retryAfterSec > 0 adds a Retry-After header (backpressure paths).
	retryAfterSec int
}

// StatusClientClosed is the non-standard 499 (client closed request)
// status used when the requester's context is cancelled mid-run; the
// client is gone, the code is for the access log.
const StatusClientClosed = 499

// statusTable is the errors.Is mapping table between the library's typed
// sentinels and the v1 wire contract. docs/API.md documents it.
var statusTable = []statusRule{
	{target: ErrSessionNotFound, status: http.StatusNotFound, code: api.CodeSessionNotFound},
	{target: ErrJobNotFound, status: http.StatusNotFound, code: api.CodeJobNotFound},
	{target: ErrSnapshotNotFound, status: http.StatusNotFound, code: api.CodeSnapshotNotFound},
	{target: workload.ErrUnknownBenchmark, status: http.StatusNotFound, code: api.CodeUnknownBenchmark},
	{target: ErrUnknownModel, status: http.StatusBadRequest, code: api.CodeUnknownModel},
	{target: ErrUnknownPolicy, status: http.StatusBadRequest, code: api.CodeUnknownPolicy},
	{target: ErrConflict, status: http.StatusConflict, code: api.CodeConflict},
	{target: ErrBusy, status: http.StatusTooManyRequests, code: api.CodeBusy, retryAfterSec: 1},
	{target: ErrFleetFull, status: http.StatusTooManyRequests, code: api.CodeFleetFull, retryAfterSec: 5},
	{target: ErrDraining, status: http.StatusServiceUnavailable, code: api.CodeDraining, retryAfterSec: 5},
	{target: ErrClosed, status: http.StatusServiceUnavailable, code: api.CodeClosed},
	{target: vmin.ErrNoSafeVmin, status: http.StatusUnprocessableEntity, code: api.CodeNoSafeVmin},
	{target: sim.ErrNotIdle, status: http.StatusUnprocessableEntity, code: api.CodeNotIdle},
	{target: sim.ErrInvalidProcess, status: http.StatusBadRequest, code: api.CodeInvalidRequest},
	{target: sim.ErrInvalidPlacement, status: http.StatusBadRequest, code: api.CodeInvalidRequest},
	{target: ErrInvalidRequest, status: http.StatusBadRequest, code: api.CodeInvalidRequest},
	{target: context.DeadlineExceeded, status: http.StatusGatewayTimeout, code: api.CodeDeadline},
	{target: context.Canceled, status: StatusClientClosed, code: api.CodeCanceled},
}

// mapError resolves an error to (status, wire code).
func mapError(err error) (int, string, int) {
	for _, r := range statusTable {
		if errors.Is(err, r.target) {
			return r.status, r.code, r.retryAfterSec
		}
	}
	return http.StatusInternalServerError, api.CodeInternal, 0
}

// wireError converts an error to its wire form (status filled for the
// caller's convenience; it is not serialized).
func wireError(err error) *api.Error {
	status, code, _ := mapError(err)
	return &api.Error{Code: code, Message: err.Error(), Status: status}
}

// Handler builds the v1 HTTP surface of a fleet:
//
//	POST   /v1/sessions                      create
//	GET    /v1/sessions                      list (?cursor=&limit=&state=&policy=)
//	GET    /v1/sessions/{id}                 session state
//	DELETE /v1/sessions/{id}                 delete (aborts runs)
//	POST   /v1/sessions/{id}/processes       submit a benchmark
//	GET    /v1/sessions/{id}/processes       process list
//	POST   /v1/sessions/{id}/run             advance time (sync or async)
//	GET    /v1/sessions/{id}/jobs            async handles
//	GET    /v1/sessions/{id}/jobs/{job}      poll one handle
//	DELETE /v1/sessions/{id}/jobs/{job}      cancel one handle
//	GET    /v1/sessions/{id}/energy          meter + breakdown
//	POST   /v1/sessions/{id}/characterize    safe-Vmin characterization (store-memoized)
//	PUT    /v1/sessions/{id}/policy          flip Table IV policy
//	POST   /v1/sessions/{id}/snapshot        capture full session state (content-addressed)
//	POST   /v1/sessions/{id}/fork            branch a deterministic child session
//	POST   /v1/sessions/{id}/whatif          compare N futures from one snapshot (fast=surrogate tier)
//	GET    /v1/estimate                      closed-form surrogate estimate / config search (no session)
//	GET    /v1/sessions/{id}/trace?since=N   decision trace as JSONL
//	GET    /v1/sessions/{id}/spans?since=N   request spans as JSONL
//	GET    /v1/sessions/{id}/slo             tail-latency SLO quantiles
//	GET    /v1/sessions/{id}/metrics         per-session Prometheus text
//	POST   /v1/cluster/import                restore a migrated-in session (node-to-node)
//	POST   /v1/cluster/migrate               snapshot + ship a session to a peer
//	GET    /metrics                          fleet Prometheus text
//	GET    /healthz                          liveness (200 while the process serves; 503 after Close)
//	GET    /readyz                           readiness (503 once Drain begins)
//
// Every response carries an X-Request-ID header (echoed from the request
// when the client supplied one); the same ID correlates the access-log
// line and the request's span tree. With Config.NodeName set, every
// response also carries X-AVFS-Node, and session routes answer 307 to
// the cluster router for sessions another node hosts (see SetRedirect).
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()

	// sess tags the request's trace metadata with the session ID before
	// the handler runs: the outer middleware cannot read PathValue itself
	// (the mux routes on its own copy of the request), so session-scoped
	// routes record it here. In clustered mode it also implements the
	// wrong-node contract: a session this node does not host answers 307
	// to the router (which proxies to the owner) instead of 404 — unless
	// the request already came through the router (X-AVFS-Proxied), which
	// must see the honest 404 to invalidate its placement cache.
	sess := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			if m := metaFrom(r.Context()); m != nil {
				m.session = id
			}
			if id != "" && r.Header.Get("X-AVFS-Proxied") == "" {
				if base := f.redirectBase(); base != "" {
					if _, err := f.lookup(id); err != nil {
						w.Header().Set("Location", base+r.URL.RequestURI())
						w.WriteHeader(http.StatusTemporaryRedirect)
						return
					}
				}
			}
			h(w, r)
		}
	}

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req api.CreateSessionRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		s, err := f.Create(req)
		respond(w, http.StatusCreated, s, err)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit, ok := queryInt[int](w, q.Get("limit"), "limit")
		if !ok {
			return
		}
		sl, err := f.ListPage(q.Get("cursor"), limit, q.Get("state"), q.Get("policy"))
		respond(w, http.StatusOK, sl, err)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", sess(func(w http.ResponseWriter, r *http.Request) {
		s, err := f.Get(r.PathValue("id"))
		respond(w, http.StatusOK, s, err)
	}))
	mux.HandleFunc("DELETE /v1/sessions/{id}", sess(func(w http.ResponseWriter, r *http.Request) {
		if err := f.Delete(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))

	mux.HandleFunc("POST /v1/sessions/{id}/processes", sess(func(w http.ResponseWriter, r *http.Request) {
		var req api.SubmitRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		p, err := f.Submit(r.PathValue("id"), req)
		respond(w, http.StatusCreated, p, err)
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/processes", sess(func(w http.ResponseWriter, r *http.Request) {
		pl, err := f.Processes(r.PathValue("id"))
		respond(w, http.StatusOK, pl, err)
	}))

	mux.HandleFunc("POST /v1/sessions/{id}/run", sess(func(w http.ResponseWriter, r *http.Request) {
		var req api.RunRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		id := r.PathValue("id")
		if req.Async {
			j, err := f.RunAsync(r.Context(), id, req)
			respond(w, http.StatusAccepted, j, err)
			return
		}
		res, err := f.RunSync(r.Context(), id, req)
		respond(w, http.StatusOK, res, err)
	}))

	mux.HandleFunc("GET /v1/sessions/{id}/jobs", sess(func(w http.ResponseWriter, r *http.Request) {
		jl, err := f.Jobs(r.PathValue("id"))
		respond(w, http.StatusOK, jl, err)
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/jobs/{job}", sess(func(w http.ResponseWriter, r *http.Request) {
		j, err := f.Job(r.PathValue("id"), r.PathValue("job"))
		respond(w, http.StatusOK, j, err)
	}))
	mux.HandleFunc("DELETE /v1/sessions/{id}/jobs/{job}", sess(func(w http.ResponseWriter, r *http.Request) {
		j, err := f.CancelJob(r.PathValue("id"), r.PathValue("job"))
		respond(w, http.StatusOK, j, err)
	}))

	mux.HandleFunc("GET /v1/sessions/{id}/energy", sess(func(w http.ResponseWriter, r *http.Request) {
		e, err := f.Energy(r.PathValue("id"))
		respond(w, http.StatusOK, e, err)
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/characterize", sess(func(w http.ResponseWriter, r *http.Request) {
		var req api.CharacterizeRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		cz, err := f.Characterize(r.PathValue("id"), req)
		respond(w, http.StatusOK, cz, err)
	}))
	mux.HandleFunc("PUT /v1/sessions/{id}/policy", sess(func(w http.ResponseWriter, r *http.Request) {
		var req api.PolicyRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		s, err := f.SetPolicy(r.PathValue("id"), req)
		respond(w, http.StatusOK, s, err)
	}))

	mux.HandleFunc("POST /v1/sessions/{id}/snapshot", sess(func(w http.ResponseWriter, r *http.Request) {
		snap, err := f.Snapshot(r.PathValue("id"))
		respond(w, http.StatusCreated, snap, err)
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/fork", sess(func(w http.ResponseWriter, r *http.Request) {
		var req api.ForkRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		fk, err := f.Fork(r.PathValue("id"), req)
		respond(w, http.StatusCreated, fk, err)
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/whatif", sess(func(w http.ResponseWriter, r *http.Request) {
		var req api.WhatIfRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		rep, err := f.WhatIf(r.Context(), r.PathValue("id"), req)
		respond(w, http.StatusOK, rep, err)
	}))

	mux.HandleFunc("GET /v1/estimate", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		req := api.EstimateRequest{
			Model:     q.Get("model"),
			Node:      q.Get("node"),
			Scaling:   q.Get("scaling"),
			Benchmark: q.Get("bench"),
			Placement: q.Get("placement"),
			Voltage:   q.Get("voltage"),
			Search:    q.Get("search"),
		}
		var ok bool
		if req.Threads, ok = queryInt[int](w, q.Get("threads"), "threads"); !ok {
			return
		}
		if req.FreqMHz, ok = queryInt[int](w, q.Get("freq_mhz"), "freq_mhz"); !ok {
			return
		}
		est, err := f.Estimate(req)
		respond(w, http.StatusOK, est, err)
	})

	mux.HandleFunc("GET /v1/sessions/{id}/trace", sess(cursorStream("Trace", f.TraceSince)))
	mux.HandleFunc("GET /v1/sessions/{id}/spans", sess(cursorStream("Span", f.Spans)))
	mux.HandleFunc("GET /v1/sessions/{id}/slo", sess(func(w http.ResponseWriter, r *http.Request) {
		slo, err := f.SLO(r.PathValue("id"))
		respond(w, http.StatusOK, slo, err)
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/metrics", sess(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := f.SessionMetrics(r.PathValue("id"), &buf); err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	}))

	// Cluster-internal surface: node-to-node migration (the router and
	// drain choreography drive these; they are not part of the tenant
	// API).
	mux.HandleFunc("POST /v1/cluster/import", func(w http.ResponseWriter, r *http.Request) {
		var req api.ImportRequest
		// Snapshot payloads dwarf tenant requests; allow 64 MiB.
		if !decodeJSONLimit(w, r, &req, 64<<20) {
			return
		}
		s, err := f.ImportSession(req)
		respond(w, http.StatusCreated, s, err)
	})
	mux.HandleFunc("POST /v1/cluster/migrate", func(w http.ResponseWriter, r *http.Request) {
		var req api.MigrateRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		mig, err := f.MigrateSession(r.Context(), req)
		respond(w, http.StatusOK, mig, err)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		servePrometheus(w, f.reg)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: a draining process is still alive (and still serving
		// reads); orchestrators must not restart it. Routability is
		// /readyz's job.
		state := "ok"
		if f.Draining() {
			state = "draining"
		}
		respond(w, http.StatusOK, map[string]string{"status": state}, nil)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: once Drain begins, tell load balancers to stop
		// routing here (new sessions and runs are rejected anyway).
		if f.Draining() {
			w.Header().Set("Retry-After", "5")
			respond(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"}, nil)
			return
		}
		respond(w, http.StatusOK, map[string]string{"status": "ok"}, nil)
	})

	return f.instrument(mux)
}

// reqMeta is the per-request trace carrier: the middleware mints the
// request ID and pre-allocates the root span ID before routing (so
// handler-side spans can parent under a root that is appended only when
// the request finishes); session-scoped routes fill in the session.
type reqMeta struct {
	id      string
	root    int64
	session string
	// historyRead marks a read of the session's own /trace or /spans
	// stream, which records no root span: a poller would otherwise append
	// one span per poll to the ring it drains.
	historyRead bool
}

// metaKey keys reqMeta in a request context.
type metaKey struct{}

// metaFrom extracts the request's trace carrier (nil outside the
// middleware, e.g. library-level callers of RunSync).
func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(metaKey{}).(*reqMeta)
	return m
}

// nextRequestID mints a process-unique request ID.
func (f *Fleet) nextRequestID() string {
	f.mu.Lock()
	f.nextReq++
	n := f.nextReq
	f.mu.Unlock()
	return fmt.Sprintf("r-%08d", n)
}

// accessRecord is one JSONL access-log line. The slow-request log reuses
// the shape with "slow":true.
type accessRecord struct {
	Time       string  `json:"time"`
	RequestID  string  `json:"request_id"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"duration_ms"`
	Bytes      int64   `json:"bytes"`
	Session    string  `json:"session,omitempty"`
	Slow       bool    `json:"slow,omitempty"`
}

// instrument is the edge middleware: it mints/echoes the request ID,
// carries the trace metadata through the handler, then accounts the
// request — status-class counters, fleet and per-session latency SLOs,
// the per-session root span, the access log, and the slow-request log.
func (f *Fleet) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fail fast once the fleet is force-closed: the session contexts
		// are cancelled and the pool is gone, so every surface — including
		// /healthz, which must stop reporting a dead process as live —
		// answers 503 immediately instead of racing the closed manager.
		if f.Closed() {
			writeError(w, fmt.Errorf("%w: fleet closed", ErrClosed))
			return
		}
		if f.cfg.NodeName != "" {
			w.Header().Set("X-AVFS-Node", f.cfg.NodeName)
		}
		start := time.Now()
		m := &reqMeta{id: r.Header.Get("X-Request-ID")}
		if m.id == "" {
			m.id = f.nextRequestID()
		}
		if !f.cfg.NoTrace {
			m.root = telemetry.NextSpanID()
		}
		w.Header().Set("X-Request-ID", m.id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), metaKey{}, m)))
		dur := time.Since(start)

		if c := sw.status / 100; c >= 1 && c <= 5 {
			f.mHTTP[c].Inc()
		}
		failed := sw.status >= 500
		now := f.cfg.Clock()
		f.reqSLO.Observe(dur, failed, now)
		if m.session != "" {
			if s, err := f.lookup(m.session); err == nil {
				s.reqSLO.Observe(dur, failed, now)
				if s.spans != nil && !m.historyRead {
					sp := telemetry.Span{
						ID: m.root, Request: m.id, Session: m.session,
						Name: "http.request", StartNs: s.spans.Stamp(start),
						DurationNs: dur.Nanoseconds(),
						Detail:     r.Method + " " + r.URL.Path,
					}
					if failed {
						sp.Status = "error"
					}
					s.spans.Append(sp)
				}
			}
		}
		rec := accessRecord{
			Time:       now.UTC().Format(time.RFC3339Nano),
			RequestID:  m.id,
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     sw.status,
			DurationMS: float64(dur.Nanoseconds()) / 1e6,
			Bytes:      sw.bytes,
			Session:    m.session,
			Slow:       dur >= slowRequest,
		}
		if f.cfg.AccessLog != nil {
			f.writeLog(f.cfg.AccessLog, rec)
		}
		if rec.Slow && f.cfg.SlowLog != nil {
			f.writeLog(f.cfg.SlowLog, rec)
		}
	})
}

// writeLog appends one JSONL record to a log writer under the log mutex.
func (f *Fleet) writeLog(w io.Writer, rec accessRecord) {
	f.logMu.Lock()
	defer f.logMu.Unlock()
	_ = json.NewEncoder(w).Encode(rec)
}

// statusWriter records the response status and body size for accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// servePrometheus renders a registry in Prometheus text format.
func servePrometheus(w http.ResponseWriter, reg *telemetry.Registry) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = export.Prometheus(w, reg)
}

// cursorStream serves one session cursor stream (/trace, /spans) as
// JSONL from ?since=N, a non-negative int64 (default 0). The
// X-<name>-Next and X-<name>-Truncated headers carry read's next cursor
// and truncation flag (the ringbuf cursor contract).
func cursorStream[T any](name string, read func(id string, since int64) ([]T, int64, bool, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if m := metaFrom(r.Context()); m != nil {
			m.historyRead = true
		}
		since, ok := queryInt[int64](w, r.URL.Query().Get("since"), "since")
		if !ok {
			return
		}
		recs, next, truncated, err := read(r.PathValue("id"), since)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		w.Header().Set("X-"+name+"-Next", strconv.FormatInt(next, 10))
		w.Header().Set("X-"+name+"-Truncated", strconv.FormatBool(truncated))
		enc := json.NewEncoder(w)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return // client went away
			}
		}
	}
}

// queryInt parses a non-negative integer query parameter ("" = 0),
// reporting false after writing the error response.
func queryInt[N int | int64](w http.ResponseWriter, v, name string) (N, bool) {
	if v == "" {
		return 0, true
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 || int64(N(n)) != n {
		writeError(w, fmt.Errorf("%w: %s=%q", ErrInvalidRequest, name, v))
		return 0, false
	}
	return N(n), true
}

// decodeJSON parses a request body, tolerating an empty body as the zero
// request. It reports false after writing the error response.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	return decodeJSONLimit(w, r, dst, 1<<20)
}

// decodeJSONLimit is decodeJSON with a caller-chosen body cap (the
// migration import path ships whole machine states).
func decodeJSONLimit(w http.ResponseWriter, r *http.Request, dst any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(dst); err != nil {
		if errors.Is(err, io.EOF) {
			return true // empty body = all defaults
		}
		writeError(w, fmt.Errorf("%w: bad JSON body: %v", ErrInvalidRequest, err))
		return false
	}
	return true
}

// respond writes a JSON success body, or maps err onto the wire contract.
func respond(w http.ResponseWriter, okStatus int, body any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(okStatus)
	_ = json.NewEncoder(w).Encode(body)
}

// writeError maps err through the status table and writes the wire body.
// A *api.Error with a concrete status (a peer's response relayed by the
// migration path) passes through with its code, status and Retry-After
// intact.
func writeError(w http.ResponseWriter, err error) {
	var apiErr *api.Error
	if errors.As(err, &apiErr) && apiErr.Status != 0 {
		if apiErr.RetryAfterSec > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(apiErr.RetryAfterSec))
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(apiErr.Status)
		_ = json.NewEncoder(w).Encode(&api.Error{Code: apiErr.Code, Message: err.Error()})
		return
	}
	status, code, retry := mapError(err)
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&api.Error{Code: code, Message: err.Error()})
}
