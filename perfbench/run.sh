#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every file the build and the run
# write stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=readonly \
	GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
