#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-run --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the benchmark writes (Go
# build cache, temporary files, generated programs, cached references,
# run records) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench.bin" .
# Not exec: the benchmark reports the peak RSS of its own children, which
# must not include the go build above.
"$out/perfbench.bin" --root "$root" --out "$out" "$@"
