#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments; see perfbench/README.md. Run from the repository root.
# Everything the build writes stays in .bench_build: the toolchain's
# cache, temporary files and config directory are all pointed there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
