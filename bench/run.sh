#!/bin/bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout: the Go build cache, the toolchain's temporary files
# and the binary all go under .bench_build at the checkout root, not under
# $HOME or /tmp. BENCHMARK.json names this script as its command;
# arguments pass through to the binary (see README.md).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
