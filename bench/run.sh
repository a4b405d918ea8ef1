#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through (see main.go for the flags).
#
# Build outputs and the Go build cache stay in .bench_build/ at the root,
# so a run reads and writes nothing outside the checkout; the toolchain
# is used as installed, offline.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
