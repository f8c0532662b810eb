#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it. Call it from the
# repository root:
#
#   bash perfbench/run.sh --workload offline-tpcds --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build
# in the current directory. The benchmark is its own module that points at
# the repository through a replace directive, so the build fails, and the
# script exits non-zero without a result, when the repository is absent.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
