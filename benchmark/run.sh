#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes stays inside the checkout, under .bench_build
# (the go build cache included), so the first call compiles and the later
# ones only relink when a source file changed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
