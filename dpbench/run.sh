#!/usr/bin/env bash
# Builds the data-plane benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash dpbench/run.sh --workload ipv4cm_fwd --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, the build's scratch files and traced-run
# spans go to .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C dpbench -o "$out/dpbench" . >&2
exec "$out/dpbench" "$@"
