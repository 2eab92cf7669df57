#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# arguments given. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload ea_car --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, journals,
# spans, profiles) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
