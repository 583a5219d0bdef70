#!/bin/sh
# Prints, per package, how many fused floating-point multiply-adds
# (FMADDD, FMSUBD, FNMADDD, FNMSUBD) an arm64 build of every package
# contains: one "package count" line each, sorted. The Go spec lets a
# compiler fuse x*y + z into one rounding; amd64 never does and arm64
# does, so each fused instruction is a site where an arm64 node may
# compute different bits than an amd64 one. Needs no arm64 machine.
#
#	sh scripts/fma_count.sh > scripts/fma_baseline.txt
set -eu

cd "$(dirname "$0")/.."

# -S writes the assembly to stderr, one "# <package>" header per package.
{ GOARCH=arm64 go build -a -gcflags=-S ./... 2>&1 >/dev/null || echo "BUILD FAILED"; } |
	awk '/^BUILD FAILED$/ { failed = 1 }
		/^# / { pkg = $2 }
		/\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/ { n[pkg]++ }
		END { if (failed) exit 1; for (p in n) print p, n[p] }' |
	sort
