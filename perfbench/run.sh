#!/usr/bin/env bash
# Builds the benchmark and the allocserve daemon from the sources of the
# checkout it is run from, then runs one workload. Run it from the root of
# the checkout:
#
#	bash perfbench/run.sh --workload alloc-large --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# Both commits of a comparison run with the same GOMAXPROCS; the
# benchmark prints the value it ran with.
export GOMAXPROCS="${GOMAXPROCS:-2}"
go -C "$root/perfbench" build -o "$build/perfbench" .
go -C "$root" build -o "$build/allocserve" ./cmd/allocserve
exec "$build/perfbench" -daemon "$build/allocserve" -out "$build/out" "$@"
