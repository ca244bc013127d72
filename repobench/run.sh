#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash repobench/run.sh --workload sweep|serve-cold \
#       --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and CPU profiles go to
# $CARGO_TARGET_DIR (default .bench_build) under the root, so a run
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -f repobench/go.mod ]]; then
	echo "run.sh: run from the root of a maligo checkout (go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache
export GOTOOLCHAIN=local GOFLAGS= PPROF_TMPDIR=$out
unset MALIGO_ENGINE # the benchmark measures the default engine

(cd repobench && go build -buildvcs=false -o "$out/repobench" .)

commit=unknown
if [[ -d .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/repobench" -out "$out" -commit "$commit" "$@"
