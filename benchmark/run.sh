#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything this writes — go's build cache and temporary files, the
# binary, the WAL directories of a run, the span file — stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$build/benchmark" .)
# A cold build leaves a hundred megabytes of dirty pages; flush them now,
# or the first run's commit barriers wait behind them.
sync -f "$build" 2>/dev/null || true
cd "$root"
exec "$build/benchmark" -dir "$build" "$@"
