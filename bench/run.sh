#!/usr/bin/env bash
# Builds classfuzzbench from this checkout and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload campaign-paper --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary, the
# daemon's data directories and the traces.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local

(cd bench && go build -o "$build/classfuzzbench" ./classfuzzbench)
exec "$build/classfuzzbench" -workdir "$build/work" "$@"
