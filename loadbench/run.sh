#!/usr/bin/env bash
# Builds the questd load benchmark from source and runs it with the given
# arguments, from the root of a repository checkout:
#
#   bash loadbench/run.sh --workload search-single --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and everything a run writes (WAL directories) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

(
	cd "$root/loadbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
		GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off \
		go build -o "$out/loadbench" .
)
exec "$out/loadbench" -workdir "$out" "$@"
