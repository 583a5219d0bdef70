# Convenience targets; `make check` is the full gate (vet + build +
# race-enabled tests + the telemetry-overhead benchmark + the simulator
# hot-path benchmark + the experiment-runner speedup benchmark + the
# characterization-store memoization benchmark + the control-plane
# throughput benchmark + the request-tracing overhead benchmark + the
# snapshot restore-and-replay benchmark + the cluster scale-out
# benchmark + the closed-form surrogate gates, which record their JSON
# summaries in BENCH_telemetry.json, BENCH_sim.json,
# BENCH_experiments.json, BENCH_cache.json, BENCH_service.json,
# BENCH_trace.json, BENCH_snapshot.json, BENCH_cluster.json and
# BENCH_surrogate.json).

GO ?= go

.PHONY: all build test race vet check bench clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

check:
	sh scripts/check.sh

bench:
	AVFS_BENCH_OUT=$(CURDIR)/BENCH_telemetry.json \
		$(GO) test ./internal/telemetry -run TestTelemetryOverheadBudget -count=1 -v
	AVFS_BENCH_SIM_OUT=$(CURDIR)/BENCH_sim.json \
		$(GO) test ./internal/sim -run TestSimSteadyStateBudget -count=1 -v
	AVFS_BENCH_EXPERIMENTS_OUT=$(CURDIR)/BENCH_experiments.json \
		$(GO) test ./internal/experiments -run TestFigure3ParallelBudget -count=1 -v
	AVFS_BENCH_CACHE_OUT=$(CURDIR)/BENCH_cache.json \
		$(GO) test ./internal/experiments -run TestCharacterizeCacheBudget -count=1 -v
	AVFS_BENCH_SERVICE_OUT=$(CURDIR)/BENCH_service.json \
		$(GO) test ./internal/service -run TestServiceThroughputBudget -count=1 -v
	AVFS_BENCH_TRACE_OUT=$(CURDIR)/BENCH_trace.json \
		$(GO) test ./internal/service -run TestTraceOverheadBudget -count=1 -v
	AVFS_BENCH_SNAPSHOT_OUT=$(CURDIR)/BENCH_snapshot.json \
		$(GO) test ./internal/sim -run TestSnapshotRestoreBudget -count=1 -v
	AVFS_BENCH_CLUSTER_OUT=$(CURDIR)/BENCH_cluster.json \
		AVFS_BENCH_SERVICE_JSON=$(CURDIR)/BENCH_service.json \
		$(GO) test ./internal/cluster -run TestClusterScaleBudget -count=1 -v
	AVFS_BENCH_SURROGATE_OUT=$(CURDIR)/BENCH_surrogate.json \
		$(GO) test ./internal/surrogate -run 'TestSurrogateQueryBudget|TestSurrogateAccuracyBudget' -count=1 -v

clean:
	$(GO) clean ./...
