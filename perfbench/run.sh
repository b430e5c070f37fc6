#!/usr/bin/env bash
# Builds serenade-server from the checkout and the benchmark from this
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Go's build cache and everything the
# benchmark writes stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serenade-server" ]]; then
	echo "perfbench: run from the root of a serenade checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/serenade-server" ./cmd/serenade-server
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Flush what the build wrote, so its writeback does not land in the
# measurement.
sync
exec "$out/perfbench" -server "$out/serenade-server" -work "$out/work" "$@"
