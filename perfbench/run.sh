#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload driving-chain --seed 42 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the current
# directory. The build fails (and nothing is printed on standard output) when
# the grouter module is not beside this directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" "$@"
