#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload fcfs-copy --seed 1 --seconds 20 --trace 0
#
# The build and its cache stay under .bench_build in the checkout; no
# module is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans-dir "$build/spans" "$@"
