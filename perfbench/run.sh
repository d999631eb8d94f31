#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, profiles) stays under .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/go-cache" "$build/go-path" "$build/go-tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/go-tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/out" "$@"
