#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it; every
# argument is passed through (see main.go). Run from the repository root:
#   bash perfbench/run.sh --workload adl-nested --seed 1 --seconds 20 --trace 0
# Build outputs, including the Go build cache, stay in .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the build dir.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
