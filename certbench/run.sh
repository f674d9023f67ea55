#!/usr/bin/env bash
# Builds the certbench program from the checkout it is run in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash certbench/run.sh --workload batch-tsv --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/certbench" ]; then
	echo "certbench: run from the repository root (go.mod and certbench/ expected)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/certbench" && go build -o "$build/certbench" .)
exec "$build/certbench" "$@"
