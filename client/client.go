// Package client is the Go consumer of the AVFS fleet control plane's v1
// HTTP API (cmd/avfs-server). It speaks the wire types of avfs/api and
// reconstructs request failures as *api.Error values, so callers branch on
// error identity with errors.Is exactly like server-side code:
//
//	c := client.New("http://localhost:8080")
//	s, err := c.CreateSession(ctx, api.CreateSessionRequest{Policy: "optimal"})
//	if err != nil { ... }
//	_, err = c.Submit(ctx, s.ID, api.SubmitRequest{Benchmark: "CG", Threads: 8})
//	if errors.Is(err, api.ErrUnknownBenchmark) { ... }
//	job, _ := c.RunAsync(ctx, s.ID, 60)
//	job, _ = c.WaitJob(ctx, s.ID, job.ID)
//	e, _ := c.Energy(ctx, s.ID)
//	fmt.Println(e.EnergyJ, "J")
//
// The cluster's own node-to-node calls (heartbeats, session listings,
// migrations and imports, metrics fan-out) go through this client too.
// See docs/API.md for the endpoint surface and the error model.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"avfs/api"
)

// Client talks to one avfs-server.
type Client struct {
	base string
	http *http.Client
	// PollInterval paces WaitJob's status polling (default 50 ms).
	PollInterval time.Duration
	// MaxRetryAfter caps how long WaitJob honors a server Retry-After
	// hint on 429 busy responses (default 2 s). The cap keeps a
	// misbehaving or heavily loaded server from parking the client for
	// minutes on one poll.
	MaxRetryAfter time.Duration
}

// defaultHTTPClient follows at most one redirect hop. On a cluster, a
// node asked about a session it doesn't host answers 307 to the router,
// which proxies to the right node — one hop resolves every legitimate
// redirect, so a second one can only be a routing loop.
var defaultHTTPClient = &http.Client{
	CheckRedirect: func(req *http.Request, via []*http.Request) error {
		if len(via) > 1 {
			return errors.New("stopped after one redirect hop (routing loop?)")
		}
		return nil
	},
}

// New builds a client for a server base URL (e.g. "http://host:8080") —
// a single node's or the cluster router's; the surface is the same.
// The optional httpClient overrides the package default (which follows
// at most one cross-node redirect hop).
func New(base string, httpClient ...*http.Client) *Client {
	c := &Client{
		base:         strings.TrimRight(base, "/"),
		http:         defaultHTTPClient,
		PollInterval: 50 * time.Millisecond,
	}
	if len(httpClient) > 0 && httpClient[0] != nil {
		c.http = httpClient[0]
	}
	return c
}

// maxResponseBytes bounds every success body the client reads: 64 MiB,
// the limit on /v1/cluster/import bodies and so the largest body the API
// accepts. A longer body fails the call with an *http.MaxBytesError
// instead of being buffered whole.
const maxResponseBytes = 64 << 20

// do issues one request and decodes the response into out (nil to discard).
// Non-2xx responses come back as *api.Error with Status and RetryAfterSec
// filled from the HTTP layer.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// send issues one request with in (if non-nil) as its JSON body. A status
// >= 400 comes back as the decoded wire error; otherwise the caller owns
// the response body, which reads at most maxResponseBytes.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encode request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	resp.Body = http.MaxBytesReader(nil, resp.Body, maxResponseBytes)
	return resp, nil
}

// decodeError reconstructs a wire error; a body that is not the error
// shape degrades to a generic *api.Error with the status alone.
func decodeError(resp *http.Response) error {
	apiErr := &api.Error{Code: api.CodeInternal, Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil {
			apiErr.RetryAfterSec = n
		}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var decoded api.Error
	if err := json.Unmarshal(raw, &decoded); err == nil && decoded.Code != "" {
		apiErr.Code = decoded.Code
		apiErr.Message = decoded.Message
	} else {
		apiErr.Message = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return apiErr
}

// CreateSession opens a session (one simulated machine + control policy).
func (c *Client) CreateSession(ctx context.Context, req api.CreateSessionRequest) (api.Session, error) {
	var s api.Session
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &s)
	return s, err
}

// ListOptions filters and paginates session listings.
type ListOptions struct {
	// Cursor resumes after the given session ID (the previous page's
	// NextCursor); "" starts from the beginning.
	Cursor string
	// Limit caps the page size; 0 means no limit.
	Limit int
	// State keeps only "idle" or "busy" sessions; "" keeps all.
	State string
	// Policy keeps only sessions running the given Table IV
	// configuration; "" keeps all.
	Policy string
}

func (o ListOptions) query() string {
	q := url.Values{}
	if o.Cursor != "" {
		q.Set("cursor", o.Cursor)
	}
	if o.Limit > 0 {
		q.Set("limit", strconv.Itoa(o.Limit))
	}
	if o.State != "" {
		q.Set("state", o.State)
	}
	if o.Policy != "" {
		q.Set("policy", o.Policy)
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// ListSessionsPage fetches one page of the session listing. Pointed at
// the cluster router, the page is the fleet-wide merge across nodes;
// check Unreachable for nodes whose sessions are missing from it.
func (c *Client) ListSessionsPage(ctx context.Context, opts ListOptions) (api.SessionList, error) {
	var l api.SessionList
	err := c.do(ctx, http.MethodGet, "/v1/sessions"+opts.query(), nil, &l)
	return l, err
}

// EachSession pages through the listing, calling fn for every session.
// A non-nil error from fn stops the iteration and is returned. opts'
// Cursor advances internally; its Limit is the per-page size (default
// 100).
func (c *Client) EachSession(ctx context.Context, opts ListOptions, fn func(api.Session) error) error {
	if opts.Limit <= 0 {
		opts.Limit = 100
	}
	for {
		page, err := c.ListSessionsPage(ctx, opts)
		if err != nil {
			return err
		}
		for _, s := range page.Sessions {
			if err := fn(s); err != nil {
				return err
			}
		}
		if page.NextCursor == "" {
			return nil
		}
		opts.Cursor = page.NextCursor
	}
}

// Session reads one session's state.
func (c *Client) Session(ctx context.Context, id string) (api.Session, error) {
	var s api.Session
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &s)
	return s, err
}

// DeleteSession removes a session, aborting any in-flight run.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Submit queues a benchmark on a session.
func (c *Client) Submit(ctx context.Context, id string, req api.SubmitRequest) (api.Process, error) {
	var p api.Process
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/processes", req, &p)
	return p, err
}

// Processes lists a session's programs.
func (c *Client) Processes(ctx context.Context, id string) (api.ProcessList, error) {
	var l api.ProcessList
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/processes", nil, &l)
	return l, err
}

// Run advances a session's simulated time and blocks for the result.
func (c *Client) Run(ctx context.Context, id string, seconds float64) (api.RunResult, error) {
	var r api.RunResult
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/run",
		api.RunRequest{Seconds: seconds}, &r)
	return r, err
}

// RunUntilIdle advances until the session is idle, within a budget.
func (c *Client) RunUntilIdle(ctx context.Context, id string, budgetSeconds float64) (api.RunResult, error) {
	var r api.RunResult
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/run",
		api.RunRequest{Seconds: budgetSeconds, UntilIdle: true}, &r)
	return r, err
}

// RunAsync admits a time advance and returns a pollable job handle.
func (c *Client) RunAsync(ctx context.Context, id string, seconds float64) (api.Job, error) {
	var j api.Job
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/run",
		api.RunRequest{Seconds: seconds, Async: true}, &j)
	return j, err
}

// Job polls an async handle.
func (c *Client) Job(ctx context.Context, id, jobID string) (api.Job, error) {
	var j api.Job
	err := c.do(ctx, http.MethodGet,
		"/v1/sessions/"+url.PathEscape(id)+"/jobs/"+url.PathEscape(jobID), nil, &j)
	return j, err
}

// Jobs lists a session's async handles.
func (c *Client) Jobs(ctx context.Context, id string) (api.JobList, error) {
	var l api.JobList
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/jobs", nil, &l)
	return l, err
}

// CancelJob aborts an in-flight async run.
func (c *Client) CancelJob(ctx context.Context, id, jobID string) (api.Job, error) {
	var j api.Job
	err := c.do(ctx, http.MethodDelete,
		"/v1/sessions/"+url.PathEscape(id)+"/jobs/"+url.PathEscape(jobID), nil, &j)
	return j, err
}

// WaitJob polls an async handle until it leaves the queued/running states
// or ctx ends. A 429 busy answer (the server's pool-saturation
// backpressure) does not fail the wait: the client backs off for the
// server's Retry-After hint — capped at MaxRetryAfter — and polls again,
// instead of hammering a saturated server at PollInterval.
func (c *Client) WaitJob(ctx context.Context, id, jobID string) (api.Job, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	maxRetry := c.MaxRetryAfter
	if maxRetry <= 0 {
		maxRetry = 2 * time.Second
	}
	for {
		j, err := c.Job(ctx, id, jobID)
		switch {
		case err == nil:
			if j.Status != api.JobQueued && j.Status != api.JobRunning {
				return j, nil
			}
		case errors.Is(err, api.ErrBusy):
			// Back off per the server's hint, then fall through to the
			// regular poll pacing below.
			var apiErr *api.Error
			if errors.As(err, &apiErr) && apiErr.RetryAfterSec > 0 {
				wait := time.Duration(apiErr.RetryAfterSec) * time.Second
				if wait > maxRetry {
					wait = maxRetry
				}
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return api.Job{}, ctx.Err()
				}
			}
		default:
			return api.Job{}, err
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return j, ctx.Err()
		}
	}
}

// Energy reads a session's meter/Vmin surface with the energy breakdown.
func (c *Client) Energy(ctx context.Context, id string) (api.Energy, error) {
	var e api.Energy
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/energy", nil, &e)
	return e, err
}

// SetPolicy flips a live session between the four Table IV configurations
// ("baseline", "safe-vmin", "placement", "optimal").
func (c *Client) SetPolicy(ctx context.Context, id, policy string) (api.Session, error) {
	return c.UpdatePolicy(ctx, id, api.PolicyRequest{Policy: policy})
}

// SetPowerCap installs (watts > 0) or lifts (watts <= 0) a session's
// power-cap governor without touching its policy.
func (c *Client) SetPowerCap(ctx context.Context, id string, watts float64) (api.Session, error) {
	return c.UpdatePolicy(ctx, id, api.PolicyRequest{PowerCapW: &watts})
}

// UpdatePolicy is the full PUT /policy surface: policy flip, power cap,
// or both in one request.
func (c *Client) UpdatePolicy(ctx context.Context, id string, req api.PolicyRequest) (api.Session, error) {
	var s api.Session
	err := c.do(ctx, http.MethodPut, "/v1/sessions/"+url.PathEscape(id)+"/policy", req, &s)
	return s, err
}

// Characterize runs (or fetches from the server's process-wide store) the
// safe-Vmin characterization of one configuration on the session's chip.
// The response's Source field reports whether the dataset was simulated
// now ("computed") or served from the "memory" or "disk" tier.
func (c *Client) Characterize(ctx context.Context, id string, req api.CharacterizeRequest) (api.Characterization, error) {
	var cz api.Characterization
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/characterize", req, &cz)
	return cz, err
}

// Trace fetches a session's decision trace as raw JSONL lines from an
// absolute offset, returning the next offset to poll from. The cursor is
// int64, matching the /spans cursor and the server's ring indices.
func (c *Client) Trace(ctx context.Context, id string, since int64) (lines []string, next int64, err error) {
	recs, next, _, err := cursorStream[json.RawMessage](ctx, c, id, "trace", "Trace", since)
	for _, rec := range recs {
		lines = append(lines, string(rec))
	}
	return lines, next, err
}

// Snapshot captures a session's complete (machine, daemon) state into the
// server's content-addressed snapshot store, returning the snapshot's
// identity. A 409 conflict means a fail-safe voltage transition was in
// flight; retry shortly.
func (c *Client) Snapshot(ctx context.Context, id string) (api.Snapshot, error) {
	var s api.Snapshot
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/snapshot", nil, &s)
	return s, err
}

// Fork branches a new session off a snapshot of an existing one. With an
// empty SnapshotID the server forks from the session's current state,
// without storing it. The child replays deterministically from the branch
// point.
func (c *Client) Fork(ctx context.Context, id string, req api.ForkRequest) (api.Fork, error) {
	var fk api.Fork
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/fork", req, &fk)
	return fk, err
}

// WhatIf compares N hypothetical futures branched from one snapshot of a
// session — different Table IV policies, power caps or placements — and
// returns the server's compared report.
func (c *Client) WhatIf(ctx context.Context, id string, req api.WhatIfRequest) (api.WhatIfReport, error) {
	var rep api.WhatIfReport
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/whatif", req, &rep)
	return rep, err
}

// Estimate answers a closed-form surrogate query — point estimate or
// energy-optimal config search — without touching any session. The
// server fits (or reuses) the surrogate model for the requested chip
// and technology node and answers in microseconds.
func (c *Client) Estimate(ctx context.Context, req api.EstimateRequest) (api.Estimate, error) {
	q := url.Values{}
	set := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	set("model", req.Model)
	set("node", req.Node)
	set("scaling", req.Scaling)
	set("bench", req.Benchmark)
	set("placement", req.Placement)
	set("voltage", req.Voltage)
	set("search", req.Search)
	if req.Threads > 0 {
		q.Set("threads", strconv.Itoa(req.Threads))
	}
	if req.FreqMHz > 0 {
		q.Set("freq_mhz", strconv.Itoa(req.FreqMHz))
	}
	path := "/v1/estimate"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var est api.Estimate
	err := c.do(ctx, http.MethodGet, path, nil, &est)
	return est, err
}

// SLO reads a session's tail-latency SLO surface: request- and
// advance-latency quantiles plus error rates, all-time and over the
// server's rolling window.
func (c *Client) SLO(ctx context.Context, id string) (api.SLO, error) {
	var s api.SLO
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/slo", nil, &s)
	return s, err
}

// Spans fetches a session's completed request spans from an absolute
// cursor, returning the decoded spans, the next cursor to poll from, and
// whether the cursor had fallen behind the server's retained window
// (spans were dropped — the caller missed data).
func (c *Client) Spans(ctx context.Context, id string, since int64) (spans []api.Span, next int64, truncated bool, err error) {
	return cursorStream[api.Span](ctx, c, id, "spans", "Span", since)
}

// cursorStream GETs one session cursor stream (/trace, /spans) from since
// and decodes its JSONL records, reading the next cursor and the
// truncation flag from the X-<header>-Next and X-<header>-Truncated
// headers.
func cursorStream[T any](ctx context.Context, c *Client, id, stream, header string, since int64) (recs []T, next int64, truncated bool, err error) {
	resp, err := c.send(ctx, http.MethodGet, fmt.Sprintf("/v1/sessions/%s/%s?since=%d", url.PathEscape(id), stream, since), nil)
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	next, _ = strconv.ParseInt(resp.Header.Get("X-"+header+"-Next"), 10, 64)
	truncated = resp.Header.Get("X-"+header+"-Truncated") == "true"
	dec := json.NewDecoder(resp.Body)
	for {
		var rec T
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return recs, next, truncated, nil
			}
			return recs, next, truncated, fmt.Errorf("client: decode %s: %w", stream, err)
		}
		recs = append(recs, rec)
	}
}

// Healthz reports process liveness (200 even while draining); Readyz
// reports routability (an *api.Error with Status 503 once Drain begins).
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Readyz reports whether the server accepts new work; a draining server
// returns an *api.Error with Status 503.
func (c *Client) Readyz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Nodes lists cluster membership. Only meaningful against a router
// base URL; a single node answers 404.
func (c *Client) Nodes(ctx context.Context) (api.NodeList, error) {
	var l api.NodeList
	err := c.do(ctx, http.MethodGet, "/cluster/v1/nodes", nil, &l)
	return l, err
}

// Rebalance asks the router to migrate every session back to its
// hash-chosen home node and reports what moved.
func (c *Client) Rebalance(ctx context.Context) (api.RebalanceReport, error) {
	var r api.RebalanceReport
	err := c.do(ctx, http.MethodPost, "/cluster/v1/rebalance", nil, &r)
	return r, err
}

// MigrateSession asks the node behind this client's base URL to ship
// one of its sessions to a peer (drain-to-peer migration).
func (c *Client) MigrateSession(ctx context.Context, req api.MigrateRequest) (api.Migration, error) {
	var m api.Migration
	err := c.do(ctx, http.MethodPost, "/v1/cluster/migrate", req, &m)
	return m, err
}

// Heartbeat registers or refreshes a node with the router behind this
// client's base URL — the node agent's beat. The reply carries the
// membership epoch, the node's power-budget share and the peer list.
func (c *Client) Heartbeat(ctx context.Context, hb api.NodeHeartbeat) (api.HeartbeatReply, error) {
	var r api.HeartbeatReply
	err := c.do(ctx, http.MethodPost, "/cluster/v1/nodes", hb, &r)
	return r, err
}

// Deregister removes a node from the router's membership (clean
// shutdown; an unclean exit expires by heartbeat TTL instead).
func (c *Client) Deregister(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/cluster/v1/nodes/"+url.PathEscape(name), nil, nil)
}

// ImportSession hands a migrated session's snapshot to the node behind
// this client's base URL — the peer end of MigrateSession. The node
// verifies the payload against SnapshotID and restores the session under
// its original identity.
func (c *Client) ImportSession(ctx context.Context, req api.ImportRequest) (api.Session, error) {
	var s api.Session
	err := c.do(ctx, http.MethodPost, "/v1/cluster/import", req, &s)
	return s, err
}

// Metrics fetches a Prometheus text-format snapshot: the fleet's with
// id == "", or one session's. Against a router base URL the fleet
// snapshot is the cluster-wide aggregation with per-node labels.
func (c *Client) Metrics(ctx context.Context, id string) (string, error) {
	path := "/metrics"
	if id != "" {
		path = "/v1/sessions/" + url.PathEscape(id) + "/metrics"
	}
	resp, err := c.send(ctx, http.MethodGet, path, nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: read metrics: %w", err)
	}
	return string(raw), nil
}
