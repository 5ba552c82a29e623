#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: build the benchmark from source into
# .bench_build/ at the root of the checkout and run it there. Everything the
# build and the run write — Go's caches, the binary, the databases — stays
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/sedna-benchmark" .)
exec "$build/sedna-benchmark" -workdir "$build/work" -outdir "$here/out" "$@"
