#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# a checkout, with the benchmark's flags:
#
#   bash perfbench/run.sh --workload tableii-cold --seed 1 --seconds 20 --trace 0
#
# Everything it writes (build cache, binary, scratch stores, span files)
# goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
