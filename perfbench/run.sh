#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash perfbench/run.sh --workload lease-churn --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --runs 5
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
