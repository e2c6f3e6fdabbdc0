#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run leave behind (Go build cache, binary,
# job state, span dumps, CPU profiles) lands under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOENV=off \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"

go build -C "$root/perfbench" -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --scratch "$out" "$@"
