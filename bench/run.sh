#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain writes (build cache, temporary files, the binary) under
# .bench_build/ in the checkout. Run from the repository root:
#
#   bash bench/run.sh -workload tpcc_std -seed 1 -seconds 20 -trace 0
#
# `go run ./bench ...` does the same with the toolchain's default cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
