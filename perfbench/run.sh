#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it.
#
#   bash perfbench/run.sh --workload wpaxos-expander --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ at the
# checkout root, so the benchmark reads and writes nothing outside it.
# Build diagnostics go to standard error; the last line of standard
# output is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
