#!/usr/bin/env bash
# check_nofma.sh — fail if the compiler fuses a multiply-add anywhere in the
# packages whose float results are pinned bit for bit (the nn kernels, the
# DQN targets and the cost model).
#
# Usage: scripts/check_nofma.sh
#
# The Go spec lets a compiler fuse x*y + z into one rounding unless the
# product is wrapped in an explicit float64(...). amd64 builds for the
# default GOAMD64=v1 never fuse, but arm64 does, so the packages are
# cross-compiled for arm64 with -gcflags=-S and the assembly listing is
# searched for FMADDD, FMSUBD, FNMADDD and FNMSUBD. Any hit prints its
# source line; wrap the product named there in float64(...).
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/nn ./internal/dqn ./internal/costmodel)
listing="$(GOARCH=arm64 go build -gcflags=-S "${pkgs[@]}" 2>&1)"
fused="$(grep -E '[[:space:]]FN?M(ADD|SUB)D[[:space:]]' <<<"$listing" || true)"
if [ -n "$fused" ]; then
  echo "fused multiply-add in ${pkgs[*]} (arm64):"
  grep -oE '\([^()]*\.go:[0-9]+\)' <<<"$fused" | sort | uniq -c
  exit 1
fi
echo "no fused multiply-add in ${pkgs[*]} (arm64)"
