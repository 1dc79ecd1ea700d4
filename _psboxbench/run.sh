#!/usr/bin/env bash
# Builds psbox's end-to-end benchmark from the source in this checkout and
# runs it with the given arguments. Run it from the repository root:
#
#   bash _psboxbench/run.sh --workload fig6-grid --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the span files of traced runs stay
# under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd _psboxbench && go build -o "$out/psboxbench" .)
exec "$out/psboxbench" "$@"
