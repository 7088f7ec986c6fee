#!/usr/bin/env bash
# Builds womd and the benchmark from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload sim-fig5 --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build output, the Go build cache and
# each run's scratch stay under .bench_build/ in the checkout. The last line
# of standard output is the result JSON; progress goes to standard error.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/womd" ]]; then
	echo "perfbench: run from the root of a womcpcm checkout (no go.mod, internal/ or cmd/womd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

go build -o "$out/womd" ./cmd/womd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --bin "$out" "$@"
