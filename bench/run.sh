#!/bin/bash
# run.sh — the benchmark's entry point named in BENCHMARK.json.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the harness (bench/e2e) and hands it the arguments. Everything
# the go tool writes — build cache, module cache, telemetry, temp files —
# is kept under .bench_build in the checkout, so a run leaves nothing
# outside it.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
cd "$root"
go build -C bench -o "$build/bin/e2e" ./e2e
exec "$build/bin/e2e" "$@"
