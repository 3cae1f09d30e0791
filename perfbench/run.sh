#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload elect-r8 --seed 1 --seconds 28 --trace 0
#   bash perfbench/run.sh ab -a <parent checkout> -b . -pairs 10
#
# Build outputs, the Go caches and configuration, traces and the sppd store
# all stay in .bench_build/ under the working directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
