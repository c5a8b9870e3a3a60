#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload mine --seed 1 --seconds 10 --trace 0
#
# Every build artefact and Go cache stays under .bench_build/ in the
# current directory. Without the repository's sources next to perfbench/
# the build fails and the script exits non-zero before printing a result.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
