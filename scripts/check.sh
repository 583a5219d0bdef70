#!/bin/sh
# Full repository check: gofmt, vet, build, the one-HTTP-client rule
# (only avfs/client and the router's byte relay build requests), the
# one-wiring rule (only experiments.Stack builds the daemon, the baseline
# and the machine's telemetry), a run of every example, race-enabled
# tests, an arm64 fused-FP ratchet (scripts/fma_count.sh
# against scripts/fma_baseline.txt), a 5 s fuzz smoke
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
#
# Every gate runs, whatever an earlier one returned: each prints its
# result, a summary lists them all at the end, and the script exits
# non-zero if any failed.
set -u

cd "$(dirname "$0")/.."

results=""
failed=0

# gate NAME CMD...: run one gate, print its result and record it for the
# summary. A failing gate does not stop the ones after it.
gate() {
	name="$1"
	shift
	echo "==> $name"
	if "$@"; then
		results="$results
PASS  $name"
	else
		results="$results
FAIL  $name"
		failed=1
		echo "FAIL: $name" >&2
	fi
}

# gofmt walks every .go file under the root, perfbench/ included (its
# own module, which go vet ./... does not reach, so it is vetted apart).
check_gofmt() {
	unformatted="$(gofmt -l .)"
	if [ -n "$unformatted" ]; then
		echo "gofmt: unformatted files:" >&2
		echo "$unformatted" >&2
		return 1
	fi
}

check_vet() {
	go vet ./... && (cd perfbench && go vet ./...)
}

# The race run's output is kept in .bench_build/race.log, and the summary
# repeats its failure lines, so a console cut to its last lines still
# names the failing test. A pipe would report tee's status, so the test
# run's status travels through a file.
check_race() {
	mkdir -p .bench_build
	{
		go test -race ./... 2>&1
		echo $? >.bench_build/race.status
	} | tee .bench_build/race.log
	return "$(cat .bench_build/race.status)"
}

# Go may fuse x*y + z into one rounding on arm64 (never on amd64), so a
# fused site can move simulated bits between architectures. The count per
# package may only go down; lower scripts/fma_baseline.txt when it does.
check_fma() {
	counts="$(sh scripts/fma_count.sh)" || return 1
	echo "$counts"
	echo "$counts" | awk 'NR == FNR { base[$1] = $2; next }
		$2 > base[$1] + 0 { print "arm64 fused FP ops in " $1 ": " $2 ", baseline " base[$1] + 0; bad = 1 }
		END { exit bad }' scripts/fma_baseline.txt - >&2 ||
		{ echo "arm64 fused-FP count rose above scripts/fma_baseline.txt" >&2; return 1; }
}

# -fuzz takes one package and one target per run, so the targets are
# discovered with `go test -list` (a new one cannot be left out): each
# package's Fuzz names print before its "ok" line. The engine minimizes
# every new-coverage input for up to -fuzzminimizetime (default 60 s)
# and counts none of those executions, so without the 1 s cap a 5 s
# smoke spends itself minimizing its first find and reports 0 execs/s.
check_fuzz() {
	listing="$(go test -list '^Fuzz' ./...)" || return 1
	targets="$(echo "$listing" | awk '/^Fuzz/ { f[n++] = $1; next }
		/^ok / { for (i = 0; i < n; i++) print $2, f[i]; n = 0 }')"
	[ -n "$targets" ] || { echo "fuzz smoke: no Fuzz targets found" >&2; return 1; }
	echo "$targets" | {
		bad=0
		while read -r pkg target; do
			go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime 5s -fuzzminimizetime 1s || bad=1
		done
		exit $bad
	}
}

# perfbench/ is its own Go module, so the build never compiles it; a
# one-second run builds it against this tree and replays its ops for
# correctness. The campaign workload's golden check recomputes the
# canonical Table III/IV rows, so a change to the tick-boundary logic of
# the daemon or the placers that alters any paper result fails there.
check_perfbench() {
	last="$(bash perfbench/run.sh --workload "$1" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
	echo "$last"
	echo "$last" | grep -q '"correct":true' || { echo "perfbench $1: replay not correct" >&2; return 1; }
	echo "$last" | grep -Eq '"failed":0[,}]' || { echo "perfbench $1: failed ops" >&2; return 1; }
}

# Every typed call one process makes to another goes through avfs/client,
# which owns the encoding, the error decoding and the response bound. So
# outside perfbench/ (its own module) and tests, only client/client.go and
# the router's byte relay, Router.forward, may build a request themselves.
check_one_client() {
	hits="$(find . -path './.*' -prune -o -path ./perfbench -prune -o \
		-name '*.go' ! -name '*_test.go' -print | sort | xargs awk '
		FNR == 1 { fn = "" }
		/^func / { fn = $0 }
		/http\.NewRequest/ {
			if (FILENAME == "./client/client.go") next
			if (FILENAME == "./internal/cluster/router.go" && fn ~ /^func \(rt \*Router\) forward\(/) next
			print FILENAME ":" FNR ": " $0
		}')" || return 1
	if [ -n "$hits" ]; then
		echo "http.NewRequest* outside client/client.go and Router.forward:" >&2
		echo "$hits" >&2
		return 1
	fi
}

# experiments.Stack is the one wiring of a machine to its telemetry and
# controllers: campaign cells, sessions, what-if branches, avfsd and the
# public facade all build through it. So outside perfbench/ and tests,
# only internal/experiments/stack.go may construct the daemon or the
# baseline or wire the machine's telemetry.
check_one_wiring() {
	hits="$(find . -path './.*' -prune -o -path ./perfbench -prune -o \
		-name '*.go' ! -name '*_test.go' -print | sort | xargs awk '
		/daemon\.New\(|sched\.NewBaseline\(|telemetry\.WireMachine\(/ {
			if (FILENAME == "./internal/experiments/stack.go") next
			print FILENAME ":" FNR ": " $0
		}')" || return 1
	if [ -n "$hits" ]; then
		echo "daemon.New, sched.NewBaseline or telemetry.WireMachine outside internal/experiments/stack.go:" >&2
		echo "$hits" >&2
		return 1
	fi
}

# go build compiles the examples but never runs them; each must also run
# to completion (they take milliseconds).
check_examples() {
	bad=0
	for dir in examples/*/; do
		echo "go run ./$dir"
		go run "./$dir" >/dev/null || { echo "example ./$dir failed" >&2; bad=1; }
	done
	return $bad
}

# bench_gate FILE VAR PKG TESTS [NAME=VALUE...]: run a package's
# benchmark gates with VAR naming their JSON summary FILE (and any further
# environment given), then print the summary.
bench_gate() {
	file="$1" var="$2" pkg="$3" tests="$4"
	shift 4
	env "$@" "$var=$(pwd)/$file" go test "$pkg" -run "$tests" -count=1 -v
	status=$?
	echo "==> $file"
	cat "$file"
	return $status
}

gate "gofmt -l" check_gofmt
gate "go vet ./..." check_vet
gate "go build ./..." go build ./...
gate "one HTTP client" check_one_client
gate "one wiring" check_one_wiring
gate "examples run" check_examples
gate "go test -race ./..." check_race
gate "arm64 fused-FP ratchet" check_fma
gate "fuzz smoke (5 s per target)" check_fuzz
gate "perfbench smoke run (advance, 1 s)" check_perfbench advance
gate "perfbench smoke run (campaign, 1 s)" check_perfbench campaign
gate "telemetry overhead benchmark" \
	bench_gate BENCH_telemetry.json AVFS_BENCH_OUT ./internal/telemetry TestTelemetryOverheadBudget
gate "simulator hot-path benchmark (steady-state allocs + coalescing speedup)" \
	bench_gate BENCH_sim.json AVFS_BENCH_SIM_OUT ./internal/sim TestSimSteadyStateBudget
gate "experiment-runner speedup benchmark (serial vs parallel Figure 3)" \
	bench_gate BENCH_experiments.json AVFS_BENCH_EXPERIMENTS_OUT ./internal/experiments TestFigure3ParallelBudget
gate "characterization-store memoization benchmark (cold vs warm Figure 3)" \
	bench_gate BENCH_cache.json AVFS_BENCH_CACHE_OUT ./internal/experiments TestCharacterizeCacheBudget
gate "control-plane throughput benchmark (session read path over HTTP)" \
	bench_gate BENCH_service.json AVFS_BENCH_SERVICE_OUT ./internal/service TestServiceThroughputBudget
gate "request-tracing overhead benchmark (RunSync traced vs untraced)" \
	bench_gate BENCH_trace.json AVFS_BENCH_TRACE_OUT ./internal/service TestTraceOverheadBudget
gate "snapshot restore benchmark (cold re-run vs restore-and-replay)" \
	bench_gate BENCH_snapshot.json AVFS_BENCH_SNAPSHOT_OUT ./internal/sim TestSnapshotRestoreBudget
# Runs after the service gate so BENCH_service.json carries the
# single-node floor the 2.5x scale target is derived from.
gate "cluster scale-out benchmark (3-node router reads + migration latency)" \
	bench_gate BENCH_cluster.json AVFS_BENCH_CLUSTER_OUT ./internal/cluster TestClusterScaleBudget \
	AVFS_BENCH_SERVICE_JSON="$(pwd)/BENCH_service.json"
gate "surrogate gates (microsecond query budget + accuracy vs simulator)" \
	bench_gate BENCH_surrogate.json AVFS_BENCH_SURROGATE_OUT ./internal/surrogate 'TestSurrogateQueryBudget|TestSurrogateAccuracyBudget'

echo "==> summary"
echo "$results" | sed '1d'
if grep -Eq -e '--- FAIL:|^FAIL' .bench_build/race.log 2>/dev/null; then
	echo "race run failures (.bench_build/race.log):"
	grep -E -e '--- FAIL:|^FAIL' .bench_build/race.log
fi
if [ "$failed" -ne 0 ]; then
	echo "FAILED" >&2
	exit 1
fi
echo "OK"
