#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ of the checkout it is run from (build cache included, so
# nothing is written outside the checkout) and runs it with the driver's
# arguments. Fails, printing no result, where the module is not present.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/vfbench" ./benchmark
exec "$out/vfbench" -tmp "$out/tmp" "$@"
