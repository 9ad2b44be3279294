#!/usr/bin/env bash
# The acceptance driver's entry point (BENCHMARK.json "command"): build hwperf
# from source inside the checkout, then run it with the driver's arguments.
# Everything the build writes — binary, Go build cache, Go's per-user state —
# stays under .bench_build/ so nothing outside the checkout is touched.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
	go build -o "$build/hwperf" ./bench/hwperf
exec "$build/hwperf" "$@"
