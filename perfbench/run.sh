#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload figures-quick --seed 20140817 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
