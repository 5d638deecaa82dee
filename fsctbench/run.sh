#!/usr/bin/env bash
# Builds the fsctbench binary from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash fsctbench/run.sh --workload flow-seqatpg --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, the toolchain's configuration
# directory (where it keeps telemetry counters) and the binary all live
# under .bench_build/ in the working directory, so a run reads and
# writes nothing outside the checkout. A failed build exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

if ! (cd "$here" && go build -o "$build/fsctbench" .) >&2; then
	echo "fsctbench: build failed" >&2
	exit 2
fi
exec "$build/fsctbench" "$@"
