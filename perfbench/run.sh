#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload longread-map --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
