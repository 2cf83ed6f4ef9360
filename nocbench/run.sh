#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root; every argument is passed through to it, e.g.
#   bash nocbench/run.sh --workload mot-serial --seed 2016 --seconds 20 --trace 0
# Build outputs, the Go build cache and temporary files stay in .bench_build.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/nocbench" .)
cd "$root"
exec "$out/nocbench" --scratch "$out/tmp" "$@"
