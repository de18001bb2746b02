#!/usr/bin/env bash
# Builds sudoku-cached and the benchmark from this checkout's sources,
# then runs the benchmark with the given arguments. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload point-rw --seed 1 --seconds 10 --trace 0
#
# Every build and cache file stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/sudoku-cached" sudoku/cmd/sudoku-cached) >&2

exec "$build/bin/perfbench" "$@"
