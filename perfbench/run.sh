#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload point-mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go build -C perfbench -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
