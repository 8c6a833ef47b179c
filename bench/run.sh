#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload solve_paper --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every other build artifact stay in
# .bench_build/ under the current directory; the go toolchain is the one on
# PATH and nothing is downloaded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
