#!/usr/bin/env bash
# Builds raccdbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload fig2-sweep --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# scratch files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C "$root/bench" build -o "$build/raccdbench" ./cmd/raccdbench
exec "$build/raccdbench" -workdir "$build/work" "$@"
