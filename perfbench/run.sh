#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload steady-sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the span dumps stay under
# .bench_build/ in the current directory; nothing outside it is written.
set -euo pipefail

root=$PWD
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
