#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with every argument passed through:
#
#   bash perfbench/run.sh --workload ladder --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, module cache and
# temporary files stay under .bench_build/ in that root, so the run reads
# and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
