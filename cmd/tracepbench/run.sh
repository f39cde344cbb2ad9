#!/usr/bin/env bash
# Builds tracepbench from source and runs it with the given arguments, e.g.
#
#   bash cmd/tracepbench/run.sh -workload paper-grid -seed 1 -seconds 10 -trace 0
#
# Run it from the repository root. Everything the build and the runs write
# (binary, Go caches, service journals, traces) stays under
# $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"

go -C cmd/tracepbench build -o "$build/tracepbench" .
exec "$build/tracepbench" -workdir "$build/work" -tracedir "$build/trace" "$@"
