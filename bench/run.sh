#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source and
# runs it, keeping every byte the Go toolchain and the run write (build
# cache, temp files, binaries, WALs, sockets) under ./.bench_build, which
# .gitignore names. Run from the repository root:
#
#   bash bench/run.sh --workload fleet-paced --seed 1 --seconds 20 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
