#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument passes through. Run it from the repository root:
#
#   bash _benchmark/run.sh --workload paper-9k --seed 1 --seconds 15 --trace 0
#
# All build state (Go build cache, temporary files, toolchain config) stays
# under .bench_build in the checkout, and the toolchain never goes to the
# network: the module needs nothing outside the repository.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C _benchmark build -o "$out/e3-benchmark" .
exec "$out/e3-benchmark" "$@"
