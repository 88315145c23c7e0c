#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, temporary
# files, the binary) goes under .bench_build at the checkout's root, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
go build -C "$here" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/dcprof-benchmark" .

cd "$root"
exec "$build/dcprof-benchmark" "$@"
