#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload flow-radix32 --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, spans) stays in
# .bench_build at the repository root. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2

cd "$root"
exec "$out/perfbench" "$@"
