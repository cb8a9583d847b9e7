#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root; all arguments are passed to the benchmark:
#
#   bash perfbench/run.sh --workload kmeans-hetero --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache included, stay under .bench_build/ in
# the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own settings files in there too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= \
	XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
