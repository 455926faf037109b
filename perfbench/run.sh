#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload v2s-bulk --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
