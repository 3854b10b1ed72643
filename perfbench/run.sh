#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload batch-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# at the repository root: the Go build cache, the runner binary, scratch
# corpora and the span files of traced runs. Build output goes to stderr,
# so the last line of stdout is the runner's JSON result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd perfbench && go build -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
