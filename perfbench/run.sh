#!/usr/bin/env bash
# Builds the benchmark against the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and traced-run span files stay under
# .bench_build/ in the checkout. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
