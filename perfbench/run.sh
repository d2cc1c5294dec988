#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary,
# result records, spans and scratch journals.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -buildvcs=false -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
