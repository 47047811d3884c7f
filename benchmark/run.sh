#!/usr/bin/env bash
# Builds the DFT-flow benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload flow_cpa --seed 2018 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# file a run writes stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git --git-dir="$root/.git" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/benchmark" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/dftbench" .)
exec "$out/dftbench" "$@"
