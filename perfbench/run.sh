#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, Chrome
# traces and checkpoint scratch files all stay under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
