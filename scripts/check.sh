#!/bin/sh
# Full repository check: gofmt, vet, build, race-enabled tests, an arm64
# fused-FP ratchet (scripts/fma_count.sh against scripts/fma_baseline.txt), a 5 s fuzz smoke
# of every fuzz target (`go test ./...` only replays their seed corpora),
# two perfbench smoke runs (the benchmark module builds, replays correctly
# and reproduces the golden Table III/IV rows), the telemetry-overhead
# benchmark, the simulator hot-path benchmark, the experiment-runner
# speedup gate, the characterization-store memoization
# gate, the control-plane throughput gate, the request-tracing overhead
# gate, the snapshot restore-and-replay gate, and the cluster scale-out
# gate (3-node router-proxied read throughput vs the single-node floor,
# plus drain-to-peer migration latency), and the closed-form surrogate
# gates (query latency/allocs plus surrogate-vs-simulator accuracy). The
# benchmarks' JSON summaries are written to BENCH_telemetry.json,
# BENCH_sim.json, BENCH_experiments.json, BENCH_cache.json,
# BENCH_service.json, BENCH_trace.json, BENCH_snapshot.json,
# BENCH_cluster.json and BENCH_surrogate.json at the repository root
# (see docs/OBSERVABILITY.md, docs/PERFORMANCE.md, EXPERIMENTS.md and
# docs/API.md).
set -eu

cd "$(dirname "$0")/.."

# gofmt walks every .go file under the root, perfbench/ included (its
# own module, which go vet ./... does not reach, so it is vetted apart).
echo "==> gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...
(cd perfbench && go vet ./...)

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# Go may fuse x*y + z into one rounding on arm64 (never on amd64), so a
# fused site can move simulated bits between architectures. The count per
# package may only go down; lower scripts/fma_baseline.txt when it does.
echo "==> arm64 fused-FP ratchet"
counts="$(sh scripts/fma_count.sh)"
echo "$counts"
echo "$counts" | awk 'NR == FNR { base[$1] = $2; next }
	$2 > base[$1] + 0 { print "arm64 fused FP ops in " $1 ": " $2 ", baseline " base[$1] + 0; bad = 1 }
	END { exit bad }' scripts/fma_baseline.txt - >&2 ||
	{ echo "arm64 fused-FP count rose above scripts/fma_baseline.txt" >&2; exit 1; }

# -fuzz takes one package and one target per run, so the targets are
# discovered with `go test -list` (a new one cannot be left out): each
# package's Fuzz names print before its "ok" line. The engine minimizes
# every new-coverage input for up to -fuzzminimizetime (default 60 s)
# and counts none of those executions, so without the 1 s cap a 5 s
# smoke spends itself minimizing its first find and reports 0 execs/s.
echo "==> fuzz smoke (5 s per target)"
listing="$(go test -list '^Fuzz' ./...)"
targets="$(echo "$listing" | awk '/^Fuzz/ { f[n++] = $1; next }
	/^ok / { for (i = 0; i < n; i++) print $2, f[i]; n = 0 }')"
[ -n "$targets" ] || { echo "fuzz smoke: no Fuzz targets found" >&2; exit 1; }
echo "$targets" | while read -r pkg target; do
	go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime 5s -fuzzminimizetime 1s || exit 1
done

# perfbench/ is its own Go module, so the build above never compiles it;
# a one-second advance run builds it against this tree and replays its
# ops for correctness.
echo "==> perfbench smoke run (advance, 1 s)"
last="$(bash perfbench/run.sh --workload advance --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$last"
echo "$last" | grep -q '"correct":true' || { echo "perfbench: replay not correct" >&2; exit 1; }
echo "$last" | grep -Eq '"failed":0[,}]' || { echo "perfbench: failed ops" >&2; exit 1; }

# The campaign workload's golden check recomputes the canonical Table
# III/IV rows, so a change to the tick-boundary logic of the daemon or the
# placers that alters any paper result fails here.
echo "==> perfbench smoke run (campaign, 1 s)"
last="$(bash perfbench/run.sh --workload campaign --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$last"
echo "$last" | grep -q '"correct":true' || { echo "perfbench: campaign golden check not correct" >&2; exit 1; }
echo "$last" | grep -Eq '"failed":0[,}]' || { echo "perfbench: failed ops" >&2; exit 1; }

echo "==> telemetry overhead benchmark"
AVFS_BENCH_OUT="$(pwd)/BENCH_telemetry.json" \
	go test ./internal/telemetry -run TestTelemetryOverheadBudget -count=1 -v

echo "==> BENCH_telemetry.json"
cat BENCH_telemetry.json

echo "==> simulator hot-path benchmark (steady-state allocs + coalescing speedup)"
AVFS_BENCH_SIM_OUT="$(pwd)/BENCH_sim.json" \
	go test ./internal/sim -run TestSimSteadyStateBudget -count=1 -v

echo "==> BENCH_sim.json"
cat BENCH_sim.json

echo "==> experiment-runner speedup benchmark (serial vs parallel Figure 3)"
AVFS_BENCH_EXPERIMENTS_OUT="$(pwd)/BENCH_experiments.json" \
	go test ./internal/experiments -run TestFigure3ParallelBudget -count=1 -v

echo "==> BENCH_experiments.json"
cat BENCH_experiments.json

echo "==> characterization-store memoization benchmark (cold vs warm Figure 3)"
AVFS_BENCH_CACHE_OUT="$(pwd)/BENCH_cache.json" \
	go test ./internal/experiments -run TestCharacterizeCacheBudget -count=1 -v

echo "==> BENCH_cache.json"
cat BENCH_cache.json

echo "==> control-plane throughput benchmark (session read path over HTTP)"
AVFS_BENCH_SERVICE_OUT="$(pwd)/BENCH_service.json" \
	go test ./internal/service -run TestServiceThroughputBudget -count=1 -v

echo "==> BENCH_service.json"
cat BENCH_service.json

echo "==> request-tracing overhead benchmark (RunSync traced vs untraced)"
AVFS_BENCH_TRACE_OUT="$(pwd)/BENCH_trace.json" \
	go test ./internal/service -run TestTraceOverheadBudget -count=1 -v

echo "==> BENCH_trace.json"
cat BENCH_trace.json

echo "==> snapshot restore benchmark (cold re-run vs restore-and-replay)"
AVFS_BENCH_SNAPSHOT_OUT="$(pwd)/BENCH_snapshot.json" \
	go test ./internal/sim -run TestSnapshotRestoreBudget -count=1 -v

echo "==> BENCH_snapshot.json"
cat BENCH_snapshot.json

# Runs after the service gate so BENCH_service.json carries the
# single-node floor the 2.5x scale target is derived from.
echo "==> cluster scale-out benchmark (3-node router reads + migration latency)"
AVFS_BENCH_CLUSTER_OUT="$(pwd)/BENCH_cluster.json" \
	AVFS_BENCH_SERVICE_JSON="$(pwd)/BENCH_service.json" \
	go test ./internal/cluster -run TestClusterScaleBudget -count=1 -v

echo "==> BENCH_cluster.json"
cat BENCH_cluster.json

echo "==> surrogate gates (microsecond query budget + accuracy vs simulator)"
AVFS_BENCH_SURROGATE_OUT="$(pwd)/BENCH_surrogate.json" \
	go test ./internal/surrogate -run 'TestSurrogateQueryBudget|TestSurrogateAccuracyBudget' -count=1 -v

echo "==> BENCH_surrogate.json"
cat BENCH_surrogate.json

echo "OK"
