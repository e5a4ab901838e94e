#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind stays under .bench_build in the
# checkout; nothing outside the checkout is read or written.
set -e
cd "$(dirname "$0")/.."
root=$(pwd)
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
(cd benchmark && go build -o "$root/.bench_build/benchmark" .)
exec .bench_build/benchmark "$@"
