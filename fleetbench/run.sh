#!/usr/bin/env bash
# Builds hars-scenario and the benchmark driver from this checkout into
# .bench_build/, then runs the driver with the given arguments, e.g.
#
#   bash fleetbench/run.sh --workload steady-64 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root" && go build -o "$out/hars-scenario" ./cmd/hars-scenario)
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" --bin "$out/hars-scenario" --work "$out/work" "$@"
