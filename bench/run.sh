#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh -workload all -seed 1
#
# Every build product (binary, Go build cache, compiler temporaries) goes
# under .bench_build/ in the current directory, so a run reads and writes
# nothing outside the checkout. All arguments pass through to the benchmark
# binary.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -C bench -o "$out/sherlock-bench" .
exec "$out/sherlock-bench" "$@"
