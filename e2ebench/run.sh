#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary)
# and every run directory stays under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
