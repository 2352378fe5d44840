#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 40 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
