#!/usr/bin/env bash
# Builds the benchmark (a module of its own, benchmark/go.mod) inside the
# checkout and runs it with the given flags. Everything the build and the
# run write — Go's build cache, its temporary files, the binary, WAL
# directories, span dumps — stays under .bench_build/ at the checkout
# root. GOPROXY=off and GOTOOLCHAIN=local: the build never asks the
# network for anything.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/llhj-benchmark" .)
cd "$root"
exec "$build/llhj-benchmark" -dir "$build" "$@"
