#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload grid --seed 1 --seconds 20 --trace 0
#
# Every build product (the Go build cache, temporary files, the go
# command's own config and telemetry, and the binary) goes under
# .bench_build/ at the root, so a run writes nothing outside the checkout.
# The toolchain is used offline, as installed.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

go -C "$root/benchmark" build -o "$out/ppmbench" .
exec "$out/ppmbench" "$@"
