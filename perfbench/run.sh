#!/usr/bin/env bash
# Builds the CLASH benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload publish-tcp --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and run
# results stay inside the checkout, under $CARGO_TARGET_DIR (default
# .bench_build). The build fails, and so the script exits non-zero, when the
# repository's sources are not next to this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/results"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export PPROF_TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --results "$build/results" "$@"
