#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cast --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (compiler cache, binary, temporary files, span
# files of traced runs) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0

# The build's own output goes to stderr: the last line of stdout is the
# benchmark's JSON result.
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
