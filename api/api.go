// Package api defines the wire types of the AVFS fleet control plane's
// v1 HTTP/JSON API. Both sides speak it: internal/service implements the
// server, avfs/client consumes it, and neither leaks internal simulator
// types onto the wire. The service and internal/cluster consume it too,
// through avfs/client, for every node-to-node call: heartbeats, session
// listings, migrations and imports, and the metrics fan-out.
//
// Errors travel as a JSON body with a stable machine-readable Code; the
// client reconstructs them as *Error values that satisfy errors.Is against
// the package's Err* sentinels, so callers branch on error identity the
// same way on both sides of the network. docs/API.md documents the full
// endpoint surface and the status-code mapping.
package api

import (
	"encoding/json"
	"fmt"
)

// Error codes carried in error response bodies. They are part of the v1
// contract: new codes may be added, existing ones never change meaning.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeUnknownBenchmark = "unknown_benchmark"
	CodeUnknownModel     = "unknown_model"
	CodeUnknownPolicy    = "unknown_policy"
	CodeSessionNotFound  = "session_not_found"
	CodeJobNotFound      = "job_not_found"
	CodeConflict         = "conflict"
	CodeSnapshotNotFound = "snapshot_not_found"
	CodeNoSafeVmin       = "no_safe_vmin"
	CodeNotIdle          = "not_idle"
	CodeBusy             = "busy"
	CodeFleetFull        = "fleet_full"
	CodeDraining         = "draining"
	CodeClosed           = "closed"
	CodeUnknownNode      = "unknown_node"
	CodeCanceled         = "canceled"
	CodeDeadline         = "deadline_exceeded"
	CodeInternal         = "internal"
)

// Error is the wire form of a request failure. Status is filled from the
// HTTP response by the client (it is not serialized).
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"-"`
	// RetryAfterSec mirrors the Retry-After header on 429/503 responses.
	RetryAfterSec int `json:"-"`
}

// Error renders the failure.
func (e *Error) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("avfs api: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("avfs api: %s (%s)", e.Message, e.Code)
}

// Is matches two *Error values by Code, so
// errors.Is(err, api.ErrSessionNotFound) works on client-side errors.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// Client-side sentinels, one per stable code. Match with errors.Is.
var (
	ErrInvalidRequest   = &Error{Code: CodeInvalidRequest}
	ErrUnknownBenchmark = &Error{Code: CodeUnknownBenchmark}
	ErrUnknownModel     = &Error{Code: CodeUnknownModel}
	ErrUnknownPolicy    = &Error{Code: CodeUnknownPolicy}
	ErrSessionNotFound  = &Error{Code: CodeSessionNotFound}
	ErrJobNotFound      = &Error{Code: CodeJobNotFound}
	ErrConflict         = &Error{Code: CodeConflict}
	ErrSnapshotNotFound = &Error{Code: CodeSnapshotNotFound}
	ErrNoSafeVmin       = &Error{Code: CodeNoSafeVmin}
	ErrBusy             = &Error{Code: CodeBusy}
	ErrFleetFull        = &Error{Code: CodeFleetFull}
	ErrDraining         = &Error{Code: CodeDraining}
	ErrClosed           = &Error{Code: CodeClosed}
	ErrUnknownNode      = &Error{Code: CodeUnknownNode}
)

// CreateSessionRequest opens a session: one simulated machine plus the
// selected control policy.
type CreateSessionRequest struct {
	// Model is "xgene2" or "xgene3" (default "xgene3").
	Model string `json:"model,omitempty"`
	// Policy is one of the four Table IV configurations: "baseline",
	// "safe-vmin", "placement", "optimal" (default "optimal").
	Policy string `json:"policy,omitempty"`
	// TickSeconds overrides the integration step (default 0.010); it must
	// be finite, positive and at most 1 s.
	TickSeconds float64 `json:"tick_seconds,omitempty"`
	// PollSeconds overrides the daemon's monitoring period (default 0.4).
	PollSeconds float64 `json:"poll_seconds,omitempty"`
	// TTLSeconds overrides the fleet's idle-session reaping deadline for
	// this session; 0 inherits the fleet default.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// ID pre-assigns the session identifier. It is minted by the cluster
	// router so a session's home node is a pure function of its ID;
	// clients creating sessions directly should leave it empty and let
	// the node mint one.
	ID string `json:"id,omitempty"`
}

// Session states carried in Session.State.
const (
	SessionIdle = "idle"
	SessionBusy = "busy"
)

// Session is the public state of one fleet session.
type Session struct {
	ID      string  `json:"id"`
	Model   string  `json:"model"`
	Policy  string  `json:"policy"`
	Now     float64 `json:"now_seconds"`
	Ticks   uint64  `json:"ticks"`
	Running int     `json:"running"`
	Pending int     `json:"pending"`
	Done    int     `json:"finished"`
	// Electrical and energy state (the meter/Vmin read surface).
	VoltageMV      int     `json:"voltage_mv"`
	RequiredVminMV int     `json:"required_vmin_mv"`
	EnergyJ        float64 `json:"energy_joules"`
	AvgPowerW      float64 `json:"avg_power_watts"`
	PeakPowerW     float64 `json:"peak_power_watts"`
	Emergencies    int     `json:"emergencies"`
	UtilizedPMDs   int     `json:"utilized_pmds"`
	IdleSeconds    float64 `json:"idle_seconds"`
	// State is "busy" while a run or job is in flight, "idle" otherwise.
	State string `json:"state,omitempty"`
	// Node names the fleet node hosting the session ("" on an unnamed
	// single-node deployment).
	Node string `json:"node,omitempty"`
	// PowerCapW is the session's active power-cap budget in watts; 0
	// means uncapped.
	PowerCapW float64 `json:"power_cap_watts,omitempty"`
}

// SessionList is the response of GET /v1/sessions. The list is ordered
// by session ID; NextCursor is set when the page was truncated by
// ?limit= and is passed back verbatim as ?cursor= to fetch the next
// page. An empty NextCursor means the listing is complete.
type SessionList struct {
	Sessions   []Session `json:"sessions"`
	NextCursor string    `json:"next_cursor,omitempty"`
	// Unreachable names fleet nodes that could not be queried when the
	// list was aggregated by the cluster router (their sessions are
	// missing from the page). Empty on single-node deployments.
	Unreachable []string `json:"unreachable,omitempty"`
}

// SubmitRequest queues a program on a session's machine.
type SubmitRequest struct {
	Benchmark string `json:"benchmark"`
	Threads   int    `json:"threads"`
}

// Process is the public state of one submitted program.
type Process struct {
	ID          int     `json:"id"`
	Benchmark   string  `json:"benchmark"`
	Threads     int     `json:"threads"`
	State       string  `json:"state"`
	Progress    float64 `json:"progress"`
	Cores       []int   `json:"cores,omitempty"`
	Submitted   float64 `json:"submitted_seconds"`
	Runtime     float64 `json:"runtime_seconds"`
	CoreEnergyJ float64 `json:"core_energy_joules"`
}

// ProcessList is the response of GET /v1/sessions/{id}/processes: the
// live processes plus the newest finished ones. FinishedDropped counts the
// older finished processes the session no longer lists; Session.Done
// counts every finished process.
type ProcessList struct {
	Processes       []Process `json:"processes"`
	FinishedDropped int       `json:"finished_dropped,omitempty"`
}

// RunRequest advances a session's simulated time.
type RunRequest struct {
	// Seconds of simulated time to advance (sync and async), or, with
	// UntilIdle, the budget after which the run times out.
	Seconds float64 `json:"seconds"`
	// UntilIdle stops as soon as no process is running or pending.
	UntilIdle bool `json:"until_idle,omitempty"`
	// Async returns a job handle immediately instead of blocking.
	Async bool `json:"async,omitempty"`
}

// RunResult reports a completed (or cancelled) time advance.
type RunResult struct {
	Now         float64 `json:"now_seconds"`
	Ticks       uint64  `json:"ticks"`
	EnergyJ     float64 `json:"energy_joules"`
	Emergencies int     `json:"emergencies"`
}

// Energy is the response of GET /v1/sessions/{id}/energy: the meter and
// Vmin read surface plus the per-component energy breakdown.
type Energy struct {
	Seconds        float64            `json:"seconds"`
	EnergyJ        float64            `json:"energy_joules"`
	AvgPowerW      float64            `json:"avg_power_watts"`
	PeakPowerW     float64            `json:"peak_power_watts"`
	VoltageMV      int                `json:"voltage_mv"`
	RequiredVminMV int                `json:"required_vmin_mv"`
	Emergencies    int                `json:"emergencies"`
	Breakdown      map[string]float64 `json:"breakdown_joules"`
}

// Job states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// Job is the handle of an asynchronous run.
type Job struct {
	ID      string     `json:"id"`
	Session string     `json:"session"`
	Status  string     `json:"status"`
	Seconds float64    `json:"seconds"`
	Error   *Error     `json:"error,omitempty"`
	Result  *RunResult `json:"result,omitempty"`
	// Node names the fleet node the job ran on ("" on an unnamed
	// single-node deployment).
	Node string `json:"node,omitempty"`
}

// JobList is the response of GET /v1/sessions/{id}/jobs.
type JobList struct {
	Jobs []Job `json:"jobs"`
}

// PolicyRequest flips a live session between the Table IV configurations
// and/or adjusts its power cap. Policy "" with PowerCapW set updates only
// the cap; Policy "" with PowerCapW nil selects the default ("optimal"),
// preserving the v1 behaviour of the bare {"policy": ""} body.
type PolicyRequest struct {
	Policy string `json:"policy"`
	// PowerCapW attaches (or retunes) a RAPL-style power-cap governor
	// with this budget in watts; 0 detaches it; nil leaves it unchanged.
	PowerCapW *float64 `json:"power_cap_watts,omitempty"`
}

// Span is one completed operation of a request trace, streamed as JSONL
// by GET /v1/sessions/{id}/spans?since=N. ID/Parent link spans into a
// tree; RequestID/Session/Job are the correlation identities; StartNs is
// monotonic nanoseconds since the session's trace epoch.
type Span struct {
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent,omitempty"`
	RequestID  string `json:"request_id,omitempty"`
	Session    string `json:"session,omitempty"`
	Job        string `json:"job,omitempty"`
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns"`
	DurationNs int64  `json:"duration_ns"`
	Ticks      uint64 `json:"ticks,omitempty"`
	Status     string `json:"status,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// QuantileSet summarizes one latency distribution: observation and error
// counts plus seconds-valued quantiles (each within 1% relative error of
// the exact order statistic).
type QuantileSet struct {
	Count       int64   `json:"count"`
	Errors      int64   `json:"errors"`
	ErrorRate   float64 `json:"error_rate"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50         float64 `json:"p50_seconds"`
	P90         float64 `json:"p90_seconds"`
	P99         float64 `json:"p99_seconds"`
	P999        float64 `json:"p999_seconds"`
}

// SLO is the response of GET /v1/sessions/{id}/slo: request- and
// advance-chunk-latency distributions, all-time and over the rolling
// window.
type SLO struct {
	Session       string      `json:"session"`
	WindowSeconds float64     `json:"window_seconds"`
	Requests      QuantileSet `json:"requests"`
	Advance       QuantileSet `json:"advance"`
	// WindowRequests/WindowAdvance cover only the rolling window (between
	// one and two windows of recent observations).
	WindowRequests QuantileSet `json:"window_requests"`
	WindowAdvance  QuantileSet `json:"window_advance"`
}

// CharacterizeRequest asks for the safe-Vmin characterization of one
// configuration on a session's chip (the paper's Sec. III-A methodology:
// safe-point search plus unsafe-region sweep). Characterizations are
// immutable derived data and are memoized in a process-wide
// content-addressed store: identical requests — across sessions — share
// one dataset, and concurrent identical requests share one computation.
type CharacterizeRequest struct {
	// FreqMHz is the operating frequency (default: the chip's maximum).
	FreqMHz int `json:"freq_mhz,omitempty"`
	// Threads is how many cores run the workload (default: every core).
	Threads int `json:"threads,omitempty"`
	// Placement allocates the cores: "clustered" (default) packs both
	// cores of each PMD first, "spreaded" uses one core per PMD.
	Placement string `json:"placement,omitempty"`
	// Benchmark selects the characterized workload; "" characterizes the
	// configuration class envelope (worst case over workloads).
	Benchmark string `json:"benchmark,omitempty"`
	// Trials overrides the per-level run counts (0 = the paper's 1000-run
	// safe criterion and 60-run sweeps; negative values are rejected).
	Trials int `json:"trials,omitempty"`
	// Salt perturbs the derived seeds; 0 is the canonical dataset.
	Salt int64 `json:"salt,omitempty"`
}

// CharacterizeLevel summarizes the runs at one voltage level of a sweep.
type CharacterizeLevel struct {
	VoltageMV int `json:"voltage_mv"`
	Runs      int `json:"runs"`
	Fails     int `json:"fails"`
}

// Characterization is the response of POST /v1/sessions/{id}/characterize:
// the discovered safe Vmin plus the unsafe-sweep levels below it.
type Characterization struct {
	Model     string `json:"model"`
	FreqMHz   int    `json:"freq_mhz"`
	Threads   int    `json:"threads"`
	Placement string `json:"placement"`
	Benchmark string `json:"benchmark,omitempty"`
	// SafeVminMV is meaningful only when SafeFound is true; SafeFound
	// false means even the nominal voltage failed the safe criterion.
	SafeVminMV int  `json:"safe_vmin_mv"`
	SafeFound  bool `json:"safe_found"`
	TotalRuns  int  `json:"total_runs"`
	// Source reports how the server's in-process store served the
	// dataset: "computed" (simulated now) or "memory" (a cached cell).
	Source string              `json:"source"`
	Levels []CharacterizeLevel `json:"levels,omitempty"`
}

// Snapshot is the response of POST /v1/sessions/{id}/snapshot: the
// content address of the captured state plus the identity needed to know
// what was captured. The ID is the sha256 of the serialized state, so
// identical states dedupe to one snapshot and a stored snapshot cannot be
// silently altered.
type Snapshot struct {
	ID      string  `json:"id"`
	Session string  `json:"session"`
	Model   string  `json:"model"`
	Policy  string  `json:"policy"`
	Now     float64 `json:"now_seconds"`
	Ticks   uint64  `json:"ticks"`
	EnergyJ float64 `json:"energy_joules"`
	// Processes counts the processes the snapshot carries: pending,
	// running and the newest finished ones the session retains.
	Processes int `json:"processes"`
}

// ForkRequest branches a new session off a snapshot:
// POST /v1/sessions/{id}/fork. With SnapshotID empty the server forks
// from the session's current state without storing it.
type ForkRequest struct {
	// SnapshotID names a previously captured snapshot; "" forks from the
	// session's current state.
	SnapshotID string `json:"snapshot_id,omitempty"`
	// Policy optionally flips the child to a different Table IV
	// configuration at birth; "" inherits the snapshot's policy.
	Policy string `json:"policy,omitempty"`
	// TTLSeconds overrides the child's idle-reaping deadline; 0 inherits
	// the fleet default.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// Fork is the response of POST /v1/sessions/{id}/fork: the snapshot the
// child was built from plus the child's public state.
type Fork struct {
	// SnapshotID echoes the request's snapshot; "" when the request named
	// none (the branch point was captured, not stored).
	SnapshotID string  `json:"snapshot_id"`
	Session    Session `json:"session"`
}

// WhatIfBranchSpec configures one branch of a what-if comparison. The
// zero value replays the snapshot unchanged (a control branch).
type WhatIfBranchSpec struct {
	// Name labels the branch in the report (default: derived from the
	// overrides, e.g. the policy name).
	Name string `json:"name,omitempty"`
	// Policy flips the branch to a Table IV configuration; "" inherits
	// the snapshot's policy.
	Policy string `json:"policy,omitempty"`
	// PowerCapW attaches a socket power-cap governor with this budget
	// (watts); 0 means no cap.
	PowerCapW float64 `json:"power_cap_watts,omitempty"`
	// Placement re-places every running process's threads ("clustered" or
	// "spreaded") before the branch runs; "" keeps the snapshot placement.
	Placement string `json:"placement,omitempty"`
}

// WhatIfRequest branches N hypothetical futures from one snapshot and
// advances them one after another in one job on the fleet's run pool:
// POST /v1/sessions/{id}/whatif. Branches are transient — they never
// become sessions and vanish after the report.
type WhatIfRequest struct {
	// SnapshotID names the branch point; "" branches from the session's
	// current state without storing it.
	SnapshotID string `json:"snapshot_id,omitempty"`
	// Seconds of simulated time each branch advances (required), or, with
	// UntilIdle, the budget after which a branch stops regardless.
	Seconds float64 `json:"seconds"`
	// UntilIdle stops each branch as soon as it has no work left.
	UntilIdle bool `json:"until_idle,omitempty"`
	// Branches lists the futures to compare. Empty defaults to the four
	// Table IV policies (baseline, safe-vmin, placement, optimal).
	Branches []WhatIfBranchSpec `json:"branches,omitempty"`
	// Fast answers every branch from the fitted closed-form surrogate
	// instead of simulating, within the surrogate's fitted error bounds:
	// four branches on a stored 13-thread X-Gene 3 snapshot took 4–9 µs
	// against 0.15 ms (10 s window) to 3.3 ms (3,600 s) simulated
	// (docs/PERFORMANCE.md §7). The report's Source says which engine
	// produced it.
	Fast bool `json:"fast,omitempty"`
}

// WhatIfBranch reports one branch's outcome over the what-if window
// (deltas are measured from the snapshot point, not session birth).
type WhatIfBranch struct {
	Name      string  `json:"name"`
	Policy    string  `json:"policy"`
	PowerCapW float64 `json:"power_cap_watts,omitempty"`
	Placement string  `json:"placement,omitempty"`
	// Error is set when the branch failed to build or run; the metric
	// fields below are then zero and excluded from the comparison.
	Error *Error `json:"error,omitempty"`

	Now     float64 `json:"now_seconds"`
	Ticks   uint64  `json:"ticks"`
	Seconds float64 `json:"seconds"`
	// EnergyJ is the energy spent within the window; AvgPowerW is
	// EnergyJ/Seconds.
	EnergyJ   float64 `json:"energy_joules"`
	AvgPowerW float64 `json:"avg_power_watts"`
	// Completed counts processes that finished within the window;
	// Running/Pending describe the branch at window end.
	Completed int `json:"completed"`
	Running   int `json:"running"`
	Pending   int `json:"pending"`
	// MakespanS is the window time until the last in-window completion (0
	// when nothing completed); P50/P99RuntimeS summarize the runtimes of
	// in-window completions (nearest-rank).
	MakespanS   float64 `json:"makespan_seconds"`
	P50RuntimeS float64 `json:"p50_runtime_seconds"`
	P99RuntimeS float64 `json:"p99_runtime_seconds"`
	// Emergencies counts voltage-emergency events within the window;
	// VoltageMV is the branch's voltage at window end.
	Emergencies int `json:"emergencies"`
	VoltageMV   int `json:"voltage_mv"`
}

// WhatIfReport is the response of POST /v1/sessions/{id}/whatif: every
// branch's outcome over the same window from the same snapshot, plus the
// best branch per axis (ties break to the first listed).
type WhatIfReport struct {
	Session string `json:"session"`
	// SnapshotID echoes the request's snapshot; "" when the request named
	// none (the branch point was captured, not stored).
	SnapshotID string  `json:"snapshot_id"`
	BaseNow    float64 `json:"base_now_seconds"`
	BaseTicks  uint64  `json:"base_ticks"`
	Seconds    float64 `json:"seconds"`

	Branches []WhatIfBranch `json:"branches"`
	// BestEnergy/BestPerf name the branch with the lowest window energy
	// and the most in-window completions (makespan breaks completion
	// ties); "" when no branch succeeded.
	BestEnergy string `json:"best_energy,omitempty"`
	BestPerf   string `json:"best_perf,omitempty"`
	// Batch summarizes the simulated advancement: a simulated report
	// advances its branches one after another on one pool job. Absent
	// from surrogate reports and when the worker pool rejected the job
	// outright.
	Batch *WhatIfBatch `json:"batch,omitempty"`
	// Source reports which engine produced the branch metrics:
	// "simulated" (the default replay path) or "surrogate" (the fast
	// closed-form tier).
	Source string `json:"source,omitempty"`
}

// WhatIfBatch summarizes one simulated what-if advancement: the branches
// advanced and the ticks they committed.
type WhatIfBatch struct {
	// Branches is the number of branches advanced.
	Branches int `json:"branches"`
	// Ticks is the branch-ticks committed across all branches.
	Ticks uint64 `json:"ticks"`
	// WallSeconds is the wall-clock time of the advancement;
	// TicksPerSec is Ticks/WallSeconds.
	WallSeconds float64 `json:"wall_seconds"`
	TicksPerSec float64 `json:"ticks_per_second"`
	// SpeedupEst is always 1: every branch steps on its own. It is kept
	// only for wire compatibility with clients that read it.
	SpeedupEst float64 `json:"speedup_est"`
}

// EstimateRequest holds the query parameters of GET /v1/estimate, the
// fleet's instant-estimate tier: a closed-form surrogate query that needs
// no session and answers in microseconds.
type EstimateRequest struct {
	// Model is "xgene2" or "xgene3" (default "xgene3"); query param "model".
	Model string
	// Node projects the chip to a technology node ("28nm", "16nm", "7nm";
	// "" or "native" keeps the real silicon); query param "node".
	Node string
	// Scaling picks the roadmap for node projection: "cons" (default) or
	// "itrs"; query param "scaling".
	Scaling string
	// Benchmark is required; query param "bench".
	Benchmark string
	// Threads defaults to 1; query param "threads".
	Threads int
	// Placement is "clustered" (default) or "spreaded"; query param
	// "placement".
	Placement string
	// FreqMHz defaults to the (scaled) maximum; query param "freq_mhz".
	FreqMHz int
	// Voltage is "nominal" (default) or "safe-vmin" (the class envelope
	// plus regulator guard); query param "voltage".
	Voltage string
	// Search, when set, scans the whole V/F × placement (× thread options
	// when Threads is 0) grid instead of answering one point: "energy"
	// minimizes energy, "ed2p" minimizes energy × delay². Query param
	// "search".
	Search string
}

// Estimate is the response of GET /v1/estimate: the resolved
// configuration point echoed back with its closed-form prediction.
type Estimate struct {
	Model string `json:"model"`
	// Chip names the (possibly node-scaled) silicon variant the estimate
	// describes, e.g. "X-Gene3@7nm-itrs".
	Chip string `json:"chip"`
	// NodeNM is the technology node in nanometres the chip was projected
	// to (the native node when no projection was requested).
	NodeNM  int    `json:"node_nm"`
	Scaling string `json:"scaling"`
	// Search echoes the search objective when the server scanned the
	// configuration grid; the fields below then describe the winner.
	Search    string  `json:"search,omitempty"`
	Benchmark string  `json:"benchmark"`
	Threads   int     `json:"threads"`
	Placement string  `json:"placement"`
	FreqMHz   int     `json:"freq_mhz"`
	VoltageMV int     `json:"voltage_mv"`
	RuntimeS  float64 `json:"runtime_seconds"`
	AvgPowerW float64 `json:"avg_power_watts"`
	EnergyJ   float64 `json:"energy_joules"`
	EDP       float64 `json:"edp"`
	ED2P      float64 `json:"ed2p"`
}

// Node states carried in Node.State.
const (
	NodeReady    = "ready"
	NodeDraining = "draining"
	NodeDown     = "down"
)

// Node is the router's view of one fleet node.
type Node struct {
	Name string `json:"name"`
	// URL is the node's advertised base URL (scheme://host:port).
	URL string `json:"url"`
	// State is "ready", "draining" (serving but refusing new placements)
	// or "down" (heartbeat expired).
	State string `json:"state"`
	// Sessions and DemandW are the node's last-reported session count and
	// aggregate average power demand in watts.
	Sessions int     `json:"sessions"`
	DemandW  float64 `json:"demand_watts"`
	// BudgetW is the node's current share of the cluster power budget in
	// watts; 0 means uncapped.
	BudgetW float64 `json:"budget_watts,omitempty"`
	// HeartbeatAgeSec is how long ago the node last checked in.
	HeartbeatAgeSec float64 `json:"heartbeat_age_seconds"`
}

// NodeList is the response of GET /cluster/v1/nodes. Epoch increments on
// every membership change (join, leave, expiry, drain flip), so watchers
// can detect topology churn cheaply.
type NodeList struct {
	Nodes []Node `json:"nodes"`
	Epoch int64  `json:"epoch"`
	// BudgetW is the cluster-wide power budget being partitioned across
	// ready nodes; 0 means power capping is off.
	BudgetW float64 `json:"budget_watts,omitempty"`
}

// NodeHeartbeat is what a node POSTs to the router's
// /cluster/v1/nodes endpoint to register and then to stay registered.
type NodeHeartbeat struct {
	Name     string  `json:"name"`
	URL      string  `json:"url"`
	Sessions int     `json:"sessions"`
	DemandW  float64 `json:"demand_watts"`
	Draining bool    `json:"draining,omitempty"`
}

// HeartbeatReply is the router's answer to a heartbeat: the membership
// view plus this node's share of the cluster power budget. Nodes apply
// BudgetW to their sessions through the PowerCap policy path.
type HeartbeatReply struct {
	Epoch int64 `json:"epoch"`
	// BudgetW is the heartbeating node's watt share; 0 lifts all caps.
	BudgetW float64 `json:"budget_watts"`
	Nodes   []Node  `json:"nodes"`
}

// MigrateRequest asks a node (POST /v1/cluster/migrate) to snapshot one
// of its sessions, ship it to the target peer and delete the local copy.
type MigrateRequest struct {
	Session    string `json:"session"`
	TargetName string `json:"target_name"`
	TargetURL  string `json:"target_url"`
}

// Migration reports one completed drain-to-peer move.
type Migration struct {
	Session string `json:"session"`
	From    string `json:"from"`
	To      string `json:"to"`
	// SnapshotID is the content address of the shipped state; replay
	// determinism makes the restored session bit-identical to one that
	// never moved.
	SnapshotID string  `json:"snapshot_id"`
	DurationMS float64 `json:"duration_ms"`
}

// ImportRequest is the peer side of a migration
// (POST /v1/cluster/import): a serialized snapshot to restore under the
// session's original identity.
type ImportRequest struct {
	Session string `json:"session"`
	// TTLSeconds carries the session's idle-reaping deadline; 0 inherits
	// the importing fleet's default.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// SnapshotID, when set, must equal the content address of State; the
	// importer verifies it so a corrupted ship is rejected.
	SnapshotID string `json:"snapshot_id,omitempty"`
	// State is the canonical snapshot encoding (snapshot.Encode).
	State json.RawMessage `json:"state"`
}

// RebalanceReport is the response of POST /cluster/v1/rebalance: which
// sessions were moved back to their hash-chosen home nodes.
type RebalanceReport struct {
	Nodes    int         `json:"nodes"`
	Sessions int         `json:"sessions_checked"`
	Moved    []Migration `json:"moved"`
	Errors   []string    `json:"errors,omitempty"`
}
