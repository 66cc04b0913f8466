#!/usr/bin/env bash
# Builds slapd, slapfront and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload host-summary --seed 1 --seconds 26 --trace 0
#
# Everything the build writes (binaries, the Go build cache, temporary
# files) stays under the build directory inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/home/go GOMODCACHE=$build/home/go/pkg/mod
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

go -C perfbench build -o "$build/bin/" slapcc/cmd/slapd slapcc/cmd/slapfront slapcc/perfbench
exec "$build/bin/perfbench" --bin "$build/bin" "$@"
