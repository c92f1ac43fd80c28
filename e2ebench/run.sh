#!/usr/bin/env bash
# Builds elle, elled and the benchmark harness from this checkout, then
# runs the harness with the given arguments. Run it from the repository
# root:
#
#   bash e2ebench/run.sh --workload list-batch-json --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$build/bin/" ./cmd/elle ./cmd/elled >&2
(cd e2ebench && go build -o "$build/bin/e2ebench" .) >&2
exec "$build/bin/e2ebench" -bin "$build/bin" -work "$build/work" "$@"
