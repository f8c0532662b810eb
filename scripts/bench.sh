#!/usr/bin/env bash
# bench.sh — run the component micro-benchmarks with -benchmem and emit a
# machine-readable summary (bench name → ns/op, B/op) for perf tracking.
#
# Usage: scripts/bench.sh [output.json] [benchtime]
#
# The output path is the first argument (default BENCH_local.json at the
# repo root, which is a scratch name: committed artifacts are snapshotted
# explicitly, e.g. `scripts/bench.sh BENCH_pr8.json`, so a casual local
# run never clobbers them). benchtime defaults to 0.5s per bench
# (raise it for more stable numbers). The raw `go test` output is echoed
# as the benches run.
#
# Every summary carries a `_meta` block (git revision, CPU count,
# GOMAXPROCS) so a committed BENCH_*.json is interpretable later: a
# parallel ≈ sequential result means nothing without knowing whether the
# host had the cores.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_local.json}"
benchtime="${2:-0.5s}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then rev="${rev}-dirty"; fi
ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
gomaxprocs="${GOMAXPROCS:-$ncpu}"

# Root-package benches: design-deployment memoization and batch execution
# (RunBatchWorkers emits the 1..NumCPU worker saturation curve).
go test -run '^$' -bench 'DeployRevisit|RunBatch|EngineDeploy|EngineRunQuery' \
  -benchmem -benchtime "$benchtime" . | tee -a "$tmp"
# Relation substrate: hashing, scattering, column lookup.
go test -run '^$' -bench 'HashAssign|SplitByHash|SplitRoundRobin|ColLookup' \
  -benchmem -benchtime "$benchtime" ./internal/relation/ | tee -a "$tmp"
# NN kernels: tiled matmul, fused forward, pooled train/predict batches,
# and the Adam and soft-update streams per kernel set (portable, avx2).
go test -run '^$' -bench 'MatMul|Forward|PredictBatch|NetworkTrainBatch|AdamStep|SoftUpdate' \
  -benchmem -benchtime "$benchtime" ./internal/nn/ | tee -a "$tmp"
# DQN step: TrainStep B/op is the pooled-scratch acceptance number;
# TrainStepMultiHeadTPCDSShape is one update at the TPC-DS repro shape
# (211 -> 128 -> 64 -> 195, batch 32) and must stay at 0 allocs/op.
go test -run '^$' -bench 'TrainStep|ValuesBatch' \
  -benchmem -benchtime "$benchtime" ./internal/dqn/ | tee -a "$tmp"
# Offline training: one SSB run at the test profile behind the cost cache.
go test -run '^$' -bench 'TrainOffline' \
  -benchmem -benchtime "$benchtime" ./internal/core/ | tee -a "$tmp"

awk -v rev="$rev" -v ncpu="$ncpu" -v gomaxprocs="$gomaxprocs" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)      # strip the GOMAXPROCS suffix
    ns = ""; bytes = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op")  bytes = $(i-1)
    }
    if (ns == "") next
    printf ",\n"
    printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s}", name, ns, (bytes == "" ? "null" : bytes)
}
BEGIN {
    printf "{\n"
    printf "  \"_meta\": {\"git_revision\": \"%s\", \"num_cpu\": %s, \"gomaxprocs\": %s}", rev, ncpu, gomaxprocs
}
END   { printf "\n}\n" }
' "$tmp" > "$out"

echo "wrote $out"
