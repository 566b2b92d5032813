#!/usr/bin/env bash
# Builds the benchmark and the raderd daemon from this checkout's source,
# then runs the benchmark with the given arguments. Every build artifact,
# including the Go build cache, stays under .bench_build/ at the root.
#
#   bash bench/run.sh --workload live --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -all -seed 1
#   bash bench/run.sh compare base.json change.json
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd bench && go build -o "$out/bench" . && go build -o "$out/raderd" repro/cmd/raderd)
# The benchmark's default -raderd is .bench_build/raderd, relative to the
# root this script runs from.
exec "$out/bench" "$@"
