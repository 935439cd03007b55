#!/usr/bin/env bash
# Builds cmd/benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. The binary, the Go build cache, generated
# instances and results all live under .bench_build at the checkout root,
# which is also the working directory of the run.
#
#   bash cmd/benchmark/run.sh --workload ml1m_t1 --seed 1 --seconds 30 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/gotmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

# VCS stamping needs a usable git; a checkout without one builds unstamped.
if ! (cd "$here" && go build -o "$build/benchmark" . 2>"$build/build.log"); then
	(cd "$here" && go build -buildvcs=false -o "$build/benchmark" .) || {
		cat "$build/build.log" >&2
		exit 1
	}
fi

cd "$root"
exec "$build/benchmark" "$@"
