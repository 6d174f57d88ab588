#!/bin/sh
# A/B the repository benchmark (go run ./benchmark, see BENCHMARK.json)
# between a base ref and the working tree: per round, run the suite in both
# trees, alternating which goes first so slow drift of the host hits both
# sides alike, keep each results.json, and print the benchmark's own
# comparison of the pair. A wrapper only: it judges nothing itself.
#
# Usage: scripts/bench_ab.sh <base-ref> [rounds]
#   base-ref  commit to compare the working tree against (e.g. HEAD~1)
#   rounds    pairs of runs (default 1)
set -eu
cd "$(dirname "$0")/.."

base="${1:?usage: scripts/bench_ab.sh <base-ref> [rounds]}"
rounds="${2:-1}"
out=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
trap 'rm -rf "$out/base"' EXIT

# The base tree is an export of the ref, not a checkout: nothing to
# unregister afterwards, and it cannot be committed to by accident.
mkdir "$out/base"
git archive "$base" | tar -x -C "$out/base"

# run TREE NAME: run the suite in TREE and keep its results as NAME.
run() {
    (cd "$1" && go run ./benchmark >"$out/$2.log" 2>&1) || {
        echo "bench_ab: benchmark failed in $1:" >&2
        cat "$out/$2.log" >&2
        exit 1
    }
    cp "$1/benchmark/out/results.json" "$out/$2.json"
}

for r in $(seq 1 "$rounds"); do
    if [ $((r % 2)) -eq 1 ]; then
        run "$out/base" "base.$r"
        run . "head.$r"
    else
        run . "head.$r"
        run "$out/base" "base.$r"
    fi
    echo "== round $r of $rounds (base $base first: $((r % 2)))"
    go run ./benchmark -compare "$out/base.$r.json" "$out/head.$r.json"
done
echo "bench_ab: results kept in $out"
