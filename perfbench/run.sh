#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through,
# e.g. bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, stores and span files go
# under .bench_build/ there.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
