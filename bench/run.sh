#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given, from
# the root of a checkout:
#
#   bash bench/run.sh --workload serve-loopback --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all live
# under .bench_build/ in the checkout, so a run writes nothing outside it.
# Without the rest of the repository (bench/go.mod replaces module themis with
# ../) the build fails and nothing is run.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a checkout" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"

go build -C "$root/bench" -o "$build/themis-bench" .
exec "$build/themis-bench" "$@"
