#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root; everything it builds or writes stays in
# .bench_build/ there:
#
#   bash bench/run.sh --workload sweep-warm --seed 1 --seconds 35 --trace 0
#
# See bench/README.md for the flags, workloads and metrics.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"

# Build offline with the installed toolchain, and keep the build cache,
# temporary files and the go command's own config and telemetry files in
# the checkout. The traced run calls `go tool pprof` with the same
# environment.
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

(cd "$root/bench" && go build -o "$build/hawkeye-perf" .)
exec "$build/hawkeye-perf" "$@"
