#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh all --seed 1 --seconds 30   # every workload in turn
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 1
fi
mkdir -p "$build"
# The go command's caches, its temporary work files and its telemetry
# counters (kept under the user config directory) are pointed into the
# build directory too.
mkdir -p "$build/tmp"
(
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
	cd "$root/perfbench" && go build -o "$build/perfbench" .
)
if [ "${1:-}" = all ]; then
	shift
	for w in paper server allocstats; do
		"$build/perfbench" --workload "$w" "$@"
	done
	exit 0
fi
exec "$build/perfbench" "$@"
