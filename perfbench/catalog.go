package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (bench_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run. Every workload reports all
// of them; an op is one request (interactive, routed), one composite
// advance op (advance) or one campaign pass (campaign).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_mean_ms", "ms"},
	{"sim_s_per_host_s", "s/s"},
	{"setup_heap_mb", "MB"},
}

// speedScaled says how each end-to-end time and rate is quoted at the
// reference speed (refspeed.go); the rest are sizes, reported as measured.
var speedScaled = map[string]scaling{
	"setup_s":          scaleTime,
	"ops_per_s":        scaleRate,
	"op_mean_ms":       scaleTime,
	"sim_s_per_host_s": scaleRate,
}

// perLayer are the metrics of a --trace 1 run. Every workload reports all
// of them; one the workload does not exercise reads 0. The request-class
// latencies come from the run's untraced first half.
var perLayer = []metricDef{
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"run_p50_ms", "ms"},
	{"run_p99_ms", "ms"},
	{"whatif_p50_ms", "ms"},
	{"whatif_p99_ms", "ms"},
	{"migrate_p50_ms", "ms"},
	{"campaign_pass_s", "s"},
	{"failed_ratio", "ratio"},
	{"rss_p50_mb", "MB"},
	{"wire.overhead_ms", "ms"},
	{"wire.resp_bytes", "B"},
	{"router.self_ms", "ms"},
	{"router.upstream_per_op", "count"},
	{"router.probe_fallbacks", "count"},
	{"router.retries", "count"},
	{"router.node_errors", "count"},
	{"http.handler_ms.read", "ms"},
	{"http.handler_ms.write", "ms"},
	{"http.handler_ms.run", "ms"},
	{"http.handler_ms.whatif", "ms"},
	{"fleet.call_ms.get", "ms"},
	{"fleet.call_ms.energy", "ms"},
	{"fleet.call_ms.estimate", "ms"},
	{"fleet.call_ms.snapshot", "ms"},
	{"actor.lock_wait_ms", "ms"},
	{"actor.lock_hold_ms", "ms"},
	{"actor.queue_ms", "ms"},
	{"gang.shard_size", "count"},
	{"gang.shared_tick_ratio", "ratio"},
	{"whatif.batch_speedup_est", "x"},
	{"pool.queue_wait_ms", "ms"},
	{"pool.run_ms", "ms"},
	{"pool.rejected", "count"},
	{"sim.advance_ms", "ms"},
	{"sim.ns_per_tick", "ns"},
	{"sim.coalesced_ratio", "ratio"},
	{"sim.memo_hit_ratio", "ratio"},
	{"daemon.decisions_per_sim_s", "1/s"},
	{"snapshot.call_ms", "ms"},
	{"estimate.call_ms", "ms"},
	{"estimate.queries", "count"},
	{"campaign.evaluate_s", "s"},
	{"campaign.characterize_s", "s"},
	{"campaign.cells", "count"},
	{"campaign.cells_cached", "count"},
	{"characterize.cache_hit_ratio", "ratio"},
	{"layers.unaccounted_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// environment stamps a result with what it was measured on.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// Commit identifies the measured sources: a digest of the module's Go
	// files, since the benchmark is usually built from an exported tree
	// without version-control metadata.
	Commit string `json:"commit"`
	// NotMeaningful lists per-layer metrics whose mechanism cannot engage
	// on this machine.
	NotMeaningful []string `json:"not_meaningful,omitempty"`
	// HostSpeed is the probe's mean speed over an untraced run, in steps
	// per second, and Measured the end-to-end values as measured at it,
	// before they were quoted at the reference speed.
	HostSpeed float64            `json:"host_steps_per_s,omitempty"`
	Measured  map[string]float64 `json:"measured,omitempty"`
}

// stamp describes the current run and machine.
func stamp(o options) environment {
	e := environment{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceDigest(),
	}
	if e.GOMAXPROCS < 2 {
		// The fleet's run pool is GOMAXPROCS wide: with one worker no two
		// advances overlap, so no gang shard forms and nothing is shared.
		e.NotMeaningful = []string{"gang.shard_size", "gang.shared_tick_ratio"}
	}
	return e
}

// sourceDigest hashes the Go sources and go.mod files of the avfs module
// the benchmark runs against, skipping hidden directories (build outputs).
func sourceDigest() string {
	root := moduleRoot()
	if root == "" {
		return "unknown"
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// moduleRoot finds the avfs module's directory: the working directory when
// the benchmark runs from the repository root, its parent when it runs
// from perfbench/ (as its tests do).
func moduleRoot() string {
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module avfs\n") {
			return dir
		}
	}
	return ""
}
