#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload inproc-governor --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build
# in the current directory (Go build cache, the binary, result files,
# span dumps and the fleet workload's WAL).
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/perfbench-runs" "$@"
