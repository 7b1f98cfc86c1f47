#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root: bash bench/run.sh --workload ladder
# Everything the build and the run leave behind goes to .bench_build/
# under the current directory, including the Go build cache.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$out/vgbench" .
exec "$out/vgbench" "$@"
