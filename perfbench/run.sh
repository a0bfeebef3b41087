#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it:
#
#   bash perfbench/run.sh --workload stream-sensor --seed 1 --seconds 8 --trace 0
#
# Run from the checkout root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build/ in the checkout.
# The build needs the zipline module one directory up; without it the
# script fails before printing a result.
set -euo pipefail

root=$(pwd)
src="$root/perfbench"
out="$root/.bench_build"
[ -f "$src/go.mod" ] || { echo "run.sh: run from the checkout root" >&2; exit 2; }
[ -f "$root/go.mod" ] || { echo "run.sh: no zipline module at $root" >&2; exit 2; }

mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
