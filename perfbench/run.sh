#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload ribo-solve --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the checkout: the Go build cache, the binary, daemon scratch directories
# and span files.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
