#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it): build the benchmark
# program from source and run it with the given arguments.
#
#   bash benchmark/run.sh --workload wal-batch --seed 7 --seconds 56 --trace 0
#   bash benchmark/run.sh -seed 7        # the whole suite
#
# Everything built lands in .bench_build/ at the repository root, Go's build
# cache included, so a run reads and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
