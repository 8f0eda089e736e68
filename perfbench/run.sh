#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload many-flows --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, span files) stays
# under .bench_build/ in the current directory, and the Go command is
# kept offline: the benchmark depends on nothing outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C perfbench build -buildvcs=false -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
