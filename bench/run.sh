#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash bench/run.sh --workload live_stream --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run leave behind — the Go build cache, the
# binary, journals and span files under os.TempDir() — goes under
# .bench_build/ in the checkout, which .gitignore names; nothing is read
# or written outside the checkout. The benchmark is its own module
# (bench/go.mod) that imports the repository through a replace directive,
# so in a directory holding only BENCHMARK.json and bench/ the build fails
# and this script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/clockwork-bench" .
cd "$root"
exec "$build/clockwork-bench" "$@"
