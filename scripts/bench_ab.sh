#!/bin/sh
# A/B the repository benchmark (go run ./benchmark, see BENCHMARK.json)
# between a base ref and the working tree: per round, run it in both trees,
# alternating which goes first so slow drift of the host hits both sides
# alike, and keep each result. A wrapper only: it judges nothing itself, and
# its exit status does not depend on the numbers.
#
# Without a workload each round runs the whole suite and prints the
# benchmark's own comparison of the pair. With one, each round runs
#   go run ./benchmark -workload W -seed 1 -seconds 10 -trace 0
# in both trees, and the end prints, per end-to-end metric of
# BENCHMARK.json: both sides' medians over the rounds, the base's
# interquartile spread, and in how many rounds the working tree was better
# (by the metric's "better" direction; a tie is no win).
#
# Usage: scripts/bench_ab.sh <base-ref> [rounds] [workload]
#   base-ref  commit to compare the working tree against (e.g. HEAD~1)
#   rounds    pairs of runs (default 1)
#   workload  one workload name from BENCHMARK.json (default: the suite)
set -eu
cd "$(dirname "$0")/.."

base="${1:?usage: scripts/bench_ab.sh <base-ref> [rounds] [workload]}"
rounds="${2:-1}"
workload="${3:-}"
args=""
if [ -n "$workload" ]; then
    args="-workload $workload -seed 1 -seconds 10 -trace 0"
fi
out=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
trap 'rm -rf "$out/base"' EXIT

# The base tree is an export of the ref, not a checkout: nothing to
# unregister afterwards, and it cannot be committed to by accident.
mkdir "$out/base"
git archive "$base" | tar -x -C "$out/base"

# run TREE NAME: run the benchmark in TREE and keep its result as NAME.json
# (the suite's results.json, or a single workload's closing JSON line).
run() {
    # $args is unquoted on purpose: it is empty or several words, none
    # with spaces (workload names have none).
    (cd "$1" && go run ./benchmark $args >"$out/$2.log" 2>&1) || {
        echo "bench_ab: benchmark failed in $1:" >&2
        cat "$out/$2.log" >&2
        exit 1
    }
    if [ -n "$workload" ]; then
        grep '^{' "$out/$2.log" | tail -n 1 >"$out/$2.json"
    else
        cp "$1/benchmark/out/results.json" "$out/$2.json"
    fi
}

# values SIDE ROUND: "SIDE ROUND metric value" for each metric of the
# round's one-line result.
values() {
    awk -v side="$1" -v round="$2" '{
        s = $0
        while (match(s, /"[A-Za-z0-9_.]+":[{]"value":[-+0-9.eE]+/)) {
            m = substr(s, RSTART + 1, RLENGTH - 1)
            name = m; sub(/".*/, "", name)
            v = m; sub(/.*"value":/, "", v)
            print side, round, name, v
            s = substr(s, RSTART + RLENGTH)
        }
    }' "$out/$1.$2.json"
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
    if [ -n "$workload" ]; then
        echo "base $(cat "$out/base.$r.json")"
        echo "head $(cat "$out/head.$r.json")"
        values base "$r" >>"$out/values"
        values head "$r" >>"$out/values"
    else
        go run ./benchmark -compare "$out/base.$r.json" "$out/head.$r.json"
    fi
done

if [ -n "$workload" ]; then
    # The end-to-end metrics and their directions, in BENCHMARK.json's order.
    awk '
        /"end_to_end"/ { on = 1 }
        on && /"name"/ {
            n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n)
            b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
            print "dir", n, b
        }
        on && /\]/ { on = 0 }
    ' BENCHMARK.json >"$out/dirs"
    echo "== $workload: $rounds rounds, base $base vs working tree"
    awk -v rounds="$rounds" '
        # q: the p-quantile of the sorted a[1..n], linear between ranks.
        function q(a, n, p,    h, i) {
            h = 1 + (n - 1) * p
            i = int(h)
            return i >= n ? a[n] : a[i] + (h - i) * (a[i + 1] - a[i])
        }
        function sorted(side, name, a,    n, i, j, t) {
            n = 0
            for (i = 1; i <= rounds; i++)
                if ((side SUBSEP i SUBSEP name) in v) a[++n] = v[side, i, name]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                    t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                }
            return n
        }
        $1 == "dir" { order[++metrics] = $2; better[$2] = $3; next }
        { v[$1, $2, $3] = $4 + 0 }
        END {
            printf "%-18s %-7s %14s %14s %12s %8s  %s\n", "metric", "better", "base median", "head median", "base IQR", "change", "wins"
            for (k = 1; k <= metrics; k++) {
                name = order[k]
                nb = sorted("base", name, bs)
                nh = sorted("head", name, hs)
                if (nb == 0 || nh == 0) continue
                mb = q(bs, nb, 0.5); mh = q(hs, nh, 0.5)
                wins = 0; pairs = 0
                for (i = 1; i <= rounds; i++) {
                    if (!(("base" SUBSEP i SUBSEP name) in v) || !(("head" SUBSEP i SUBSEP name) in v)) continue
                    pairs++
                    d = v["head", i, name] - v["base", i, name]
                    if ((better[name] == "higher" && d > 0) || (better[name] == "lower" && d < 0)) wins++
                }
                change = mb != 0 ? sprintf("%+.1f%%", 100 * (mh - mb) / mb) : "-"
                printf "%-18s %-7s %14.6g %14.6g %12.4g %8s  %d/%d\n", name, better[name], mb, mh, q(bs, nb, 0.75) - q(bs, nb, 0.25), change, wins, pairs
            }
        }
    ' "$out/dirs" "$out/values"
fi
echo "bench_ab: results kept in $out"
