#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the server, the data generator, the
# harness and the layer pass from the checkout this script sits in, into
# .bench_build/ at its root (build cache included: nothing is written outside
# the checkout), then runs the harness with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root" && go build -o "$build/bin/" ./cmd/omega-serve ./cmd/omega-gen)
(cd "$root/benchmark" && go build -o "$build/bin/omega-ledger" . && go build -o "$build/bin/omega-layers" ./layers)
exec "$build/bin/omega-ledger" -bin "$build/bin" -work "$build/work" \
	-golden "$root/benchmark/golden.json" -out "$build/out" "$@"
