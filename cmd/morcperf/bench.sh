#!/usr/bin/env bash
# Builds morcperf from the source tree it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/morcperf/bench.sh --workload morc-reads --seed 1 --seconds 25 --trace 0
#   bash cmd/morcperf/bench.sh -seed 1 -out run.json
#
# Everything the build writes (the binary, Go's build cache, temporary
# files) stays under .bench_build/ in the current directory. Outside a
# complete source tree the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/morcperf" .)
exec "$out/morcperf" "$@"
