#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and every
# file a run writes stay under .bench_build (or $CARGO_TARGET_DIR) in the
# current directory; nothing is fetched from the network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
