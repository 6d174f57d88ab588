#!/bin/sh
# Snapshot the wire/rmem benchmarks into a BENCH_N.json perf-trajectory file.
# A snapshot is a record of one host, not a verdict: to compare two trees,
# pair them on one host with scripts/bench_ab.sh -c.
#
# Usage: [BENCH_COUNT=N] [BENCH_TIME=T] scripts/bench_snapshot.sh [OUT.json]
#   OUT          defaults to the next free BENCH_N.json at the repo root
#   BENCH_COUNT  repetitions per benchmark (default 3); the snapshot records
#                the best of N (min for /op metrics, max for /s), which
#                suppresses one-off scheduler/GC noise
#   BENCH_TIME   optional -benchtime per repetition (e.g. 100ms)
set -eu
cd "$(dirname "$0")/.."

out="${1:-}"
if [ -z "$out" ]; then
    n=0
    while [ -e "BENCH_$n.json" ]; do n=$((n + 1)); done
    out="BENCH_$n.json"
fi

set -- -snapshot "$out" -count "${BENCH_COUNT:-3}"
if [ -n "${BENCH_TIME:-}" ]; then
    set -- "$@" -benchtime "$BENCH_TIME"
fi
exec go run ./cmd/edmbench "$@"
