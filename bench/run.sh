#!/bin/bash
# The command BENCHMARK.json names. Builds the benchmark inside the
# checkout — Go's build cache and temporary files included, so a run
# writes nothing outside it — and runs it with the arguments given.
# `go run ./bench` from the repository root does the same with the
# user's own build cache.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
