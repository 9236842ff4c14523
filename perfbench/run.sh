#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fleet-ingest --seed 1337 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, WAL
# scratch directories and span dumps all stay under .bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
