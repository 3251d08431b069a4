#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash tunebench/run.sh --workload ga-production --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/config"
# The module needs nothing beyond the checkout and the standard library:
# no download is ever attempted.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local
go -C tunebench build -o "$out/tunebench/tunebench" .
exec "$out/tunebench/tunebench" "$@"
