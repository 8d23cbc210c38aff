#!/usr/bin/env bash
# Builds the benchmark and the magicserver it drives from the sources in this
# checkout, then runs the benchmark with the given arguments. Everything the
# build and the run write — Go's build cache included — stays inside the
# checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/magicserver" ./cmd/magicserver) >&2
(cd "$root/benchmark" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
