#!/usr/bin/env bash
# Builds the benchmark and mcmserve from this checkout and runs one
# benchmark invocation, passing its arguments through:
#
#   bash mcmbench/run.sh --workload dense-cell --seed 0 --seconds 15 --trace 0
#
# Everything is built and written under .bench_build/ in the checkout
# root (override with CARGO_TARGET_DIR), the Go build cache included.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/bin" "$out/tmp" "$out/config"
out=$(cd "$out" && pwd)
# Keep the toolchain's caches, scratch files and telemetry in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd mcmbench && go build -o "$out/bin/" . mcmgpu/cmd/mcmserve)
exec "$out/bin/mcmbench" -root "$root" -mcmserve "$out/bin/mcmserve" -out "$out/mcmbench" "$@"
