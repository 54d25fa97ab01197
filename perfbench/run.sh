#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload pair-udp --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the binary and the traced runs' span files.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --trace-dir "$build/trace" "$@"
