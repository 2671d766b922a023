#!/usr/bin/env bash
# Builds the benchmark's two programs from source into .bench_build/ of the
# checkout and runs the one the arguments select: the per-layer pass
# (./layers) on --trace 1, the end-to-end program otherwise. Everything the
# build and the run write stays inside the checkout.
#
#   bash bench/run.sh --seed 1                 every workload, end to end
#   bash bench/run.sh --seed 1 --trace 1       every workload, per layer
#   bash bench/run.sh --workload topk-sma --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local

trace=0 prev=
for arg in "$@"; do
	case "$arg" in -trace=* | --trace=*) trace="${arg#*=}" ;; esac
	case "$prev" in -trace | --trace) trace="$arg" ;; esac
	prev="$arg"
done
pkg=. bin=bench-e2e
if [ "$trace" != 0 ]; then
	pkg=./layers bin=bench-layers
fi

go build -C "$here" -o "$build/$bin" "$pkg"
cd "$root"
exec "$build/$bin" "$@"
