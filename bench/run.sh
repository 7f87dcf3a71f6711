#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 28 --trace 0
#
# The binary, the Go build cache, the generated library and the span
# files all stay under .bench_build/ in the current directory. Without
# the repository around bench/ the build fails and nothing is printed.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"

go -C bench build -o "$out/medcc-bench" .
exec "$out/medcc-bench" "$@"
