#!/bin/sh
# Builds tlabench from this checkout and runs it with the given flags.
# Run from the repository root: sh bench/run.sh -workload all -seed 1
#
# Everything the toolchain writes (build cache, temp files, telemetry)
# stays under .bench_build/ in the checkout. The build reuses the cache
# there, so only the first run in a checkout compiles from scratch.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -buildvcs=false -o "$out/tlabench" ./cmd/tlabench
exec "$out/tlabench" "$@"
