#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the root of the checkout:
#   bash perfbench/run.sh --workload first-view --seed 1 --seconds 10 --trace 0
# Build products, Go's caches and run data go to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/p3bench" .) >&2
exec "$build/p3bench" "$@"
