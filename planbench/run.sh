#!/bin/sh
# Builds looppartd and the benchmark from the tree it sits in, then runs
# the benchmark with the arguments given, from the repository root:
#
#   sh planbench/run.sh --workload hit_repeat --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run logs stay under .bench_build
# in the current directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/config/go/telemetry"
# Keep every file the go command writes inside the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# Turn Go telemetry off in that config directory before the first go
# command: in its default "local" mode the go command starts a detached
# telemetry process that outlives the build.
printf off > "$out/config/go/telemetry/mode"
go build -o "$out/looppartd" ./cmd/looppartd
go -C planbench build -o "$out/planbench" .
exec "$out/planbench" -daemon "$out/looppartd" -dir "$out/runs" "$@"
