#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there, passing every argument through. Nothing is
# read or written outside the checkout: the Go build cache lives in
# .bench_build too, and the toolchain is pinned to the installed one so
# that go never tries to download another.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
