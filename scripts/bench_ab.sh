#!/bin/sh
# A/B the repository benchmark (go run ./benchmark, see BENCHMARK.json)
# between a base ref and the working tree: per round, run it in both trees,
# alternating which goes first so slow drift of the host hits both sides
# alike, and keep each result. Its exit status does not depend on the
# numbers.
#
# Without a workload each round runs the whole suite and prints the
# benchmark's own comparison of the pair. With one, each round runs
#   go run ./benchmark -workload W -seed S -seconds 10 -trace 0
# in both trees, and the end prints, per end-to-end metric of
# BENCHMARK.json: both sides' medians over the rounds, the base's
# interquartile range (IQR), in how many rounds the working tree was better
# (by the metric's "better" direction; a tie is no win), and a verdict, the
# first of these that holds:
#   missing     the base has the metric and no head run does (a deleted or
#               renamed benchmark, or a workload that stopped reporting it);
#               a metric only the head has is not printed
#   gain        at least ten rounds, at least 9/10 of them wins, and the
#               head median better than the base median by more than the
#               base IQR
#   regression  the head median worse than the base median by more than
#               the metric's bound (a fraction of the base median)
#   unresolved  the base IQR wider than the bound, and not every head run
#               better than every base run
#   held        anything else
#
# With -c, the same pairing runs Go benchmarks instead: each tree's test
# binary for one package is built once (go test -c), and each round runs
#   X.test -test.run '^$' -test.bench PATTERN -test.benchmem -test.timeout 10m
# from both, in the package's directory. The end prints the same table for
# each matched benchmark's ns/op, B/op and allocs/op (lower is better; the
# regression bound is 15 %, and any allocation over a 0 allocs/op base
# median is a regression). CI's bench-gate job is this form, run against the
# change's base, and fails on any row that reads regression or missing.
#
# Usage: scripts/bench_ab.sh <base-ref> [rounds] [workload [seed]]
#        scripts/bench_ab.sh -c <base-ref> <rounds> <package> <pattern>
#   base-ref  commit to compare the working tree against (e.g. HEAD~1)
#   rounds    pairs of runs (default 1)
#   workload  one workload name from BENCHMARK.json (default: the suite)
#   seed      the workload's -seed (default 1). A claim tuned while watching
#             one seed is re-checked on another, not used during development:
#             a gain that holds only for the seed it was found on is noise.
#   package   the package whose benchmarks run (e.g. . or ./internal/sched)
#   pattern   the -test.bench regexp (e.g. '^BenchmarkSchedulerThroughput$')
set -eu
cd "$(dirname "$0")/.."

usage="usage: scripts/bench_ab.sh <base-ref> [rounds] [workload [seed]]
       scripts/bench_ab.sh -c <base-ref> <rounds> <package> <pattern>"
gotest=""
if [ "${1:-}" = "-c" ]; then
    [ $# -eq 5 ] || { echo "$usage" >&2; exit 2; }
    gotest=1 base="$2" rounds="$3" pkg="$4" pattern="$5"
    workload="" seed=""
else
    base="${1:?$usage}"
    rounds="${2:-1}"
    workload="${3:-}"
    seed="${4:-1}"
fi
args=""
if [ -n "$workload" ]; then
    args="-workload $workload -seed $seed -seconds 10 -trace 0"
fi
# Both trees build the same bytes from the same source: go embeds the build
# directory in every binary and, for go build in a git checkout, the
# revision, so without these flags the base (built from an export) and the
# head (built in the checkout) differ in layout before any change of code.
# Every build below inherits them, the benchmark's own build of edmd too.
GOFLAGS="${GOFLAGS:+$GOFLAGS }-trimpath -buildvcs=false"
export GOFLAGS
out=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
# The base tree and the two test binaries are tens of MB; the round logs
# and values stay.
trap 'rm -rf "$out/base" "$out/base.test" "$out/head.test"' EXIT

# The base tree is an export of the ref, not a checkout: nothing to
# unregister afterwards, and it cannot be committed to by accident.
mkdir "$out/base"
git archive "$base" | tar -x -C "$out/base"

if [ -n "$gotest" ]; then
    for side in base head; do
        tree=.
        [ "$side" = base ] && tree="$out/base"
        (cd "$tree" && go test -c -o "$out/$side.test" "$pkg") || {
            echo "bench_ab: go test -c $pkg failed in $tree" >&2
            exit 1
        }
    done
fi

# run TREE NAME: run the benchmark in TREE and keep its result as NAME.json
# (the suite's results.json, or a single workload's closing JSON line); with
# -c, run the side's test binary in the package's directory of TREE and keep
# its output as NAME.txt.
run() {
    if [ -n "$gotest" ]; then
        (cd "$1/$pkg" && "$out/${2%%.*}.test" -test.run '^$' -test.bench "$pattern" \
            -test.benchmem -test.timeout 10m >"$out/$2.txt" 2>&1) || {
            echo "bench_ab: benchmark failed in $1:" >&2
            cat "$out/$2.txt" >&2
            exit 1
        }
        return
    fi
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
# round's one-line result; with -c, for each ns/op, B/op and allocs/op of
# each benchmark line ("BenchmarkX:allocs/op", the -GOMAXPROCS suffix cut).
values() {
    if [ -n "$gotest" ]; then
        awk -v side="$1" -v round="$2" '/^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            for (i = 3; i < NF; i += 2)
                if ($(i + 1) ~ /^(ns|B|allocs)\/op$/) print side, round, name ":" $(i + 1), $i
        }' "$out/$1.$2.txt"
        return
    fi
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
    if [ -n "$gotest" ]; then
        grep '^Benchmark' "$out/base.$r.txt" | sed 's/^/base /'
        grep '^Benchmark' "$out/head.$r.txt" | sed 's/^/head /'
        values base "$r" >>"$out/values"
        values head "$r" >>"$out/values"
    elif [ -n "$workload" ]; then
        echo "base $(cat "$out/base.$r.json")"
        echo "head $(cat "$out/head.$r.json")"
        values base "$r" >>"$out/values"
        values head "$r" >>"$out/values"
    else
        go run ./benchmark -compare "$out/base.$r.json" "$out/head.$r.json"
    fi
done

if [ -n "$gotest" ]; then
    # Every benchmark metric is a cost: lower is better, bound 15 %.
    awk '!seen[$3]++ { print "dir", $3, "lower", 0.15 }' "$out/values" >"$out/dirs"
    echo "== $pkg $pattern: $rounds rounds, base $base vs working tree"
elif [ -n "$workload" ]; then
    # The end-to-end metrics, their directions and bounds, in BENCHMARK.json's
    # order.
    awk '
        /"end_to_end"/ { on = 1 }
        on && /"name"/ {
            n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n)
            b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
            l = $0; sub(/.*"bound": */, "", l); sub(/[^-+0-9.eE].*/, "", l)
            print "dir", n, b, l
        }
        on && /\]/ { on = 0 }
    ' BENCHMARK.json >"$out/dirs"
    echo "== $workload: $rounds rounds, seed $seed, base $base vs working tree"
fi
if [ -n "$gotest$workload" ]; then
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
        # gain: how much better x is than y, by the direction of the metric.
        function gain(name, x, y) { return better[name] == "higher" ? x - y : y - x }
        $1 == "dir" {
            order[++metrics] = $2; better[$2] = $3; bound[$2] = $4
            if (length($2) > w) w = length($2)
            next
        }
        { v[$1, $2, $3] = $4 + 0 }
        END {
            if (w < 18) w = 18
            printf "%-" w "s %-7s %14s %14s %12s %8s  %-5s  %s\n", "metric", "better", "base median", "head median", "base IQR", "change", "wins", "verdict"
            for (k = 1; k <= metrics; k++) {
                name = order[k]
                nb = sorted("base", name, bs)
                nh = sorted("head", name, hs)
                if (nb == 0) continue
                if (nh == 0) {
                    printf "%-" w "s %-7s %14.6g %14s %12s %8s  %-5s  %s\n", name, better[name], q(bs, nb, 0.5), "-", "-", "-", "-", "missing"
                    continue
                }
                mb = q(bs, nb, 0.5); mh = q(hs, nh, 0.5)
                wins = 0; pairs = 0
                for (i = 1; i <= rounds; i++) {
                    if (!(("base" SUBSEP i SUBSEP name) in v) || !(("head" SUBSEP i SUBSEP name) in v)) continue
                    pairs++
                    if (gain(name, v["head", i, name], v["base", i, name]) > 0) wins++
                }
                iqr = q(bs, nb, 0.75) - q(bs, nb, 0.25)
                # Every head run beats every base run when the worst head
                # run beats the best base run.
                if (better[name] == "higher") apart = hs[1] > bs[nb]
                else apart = hs[nh] < bs[1]
                if (pairs >= 10 && wins >= 0.9 * pairs && gain(name, mh, mb) > iqr) verdict = "gain"
                else if (-gain(name, mh, mb) > bound[name] * mb) verdict = "regression"
                else if (iqr > bound[name] * mb && !apart) verdict = "unresolved"
                else verdict = "held"
                change = mb != 0 ? sprintf("%+.1f%%", 100 * (mh - mb) / mb) : "-"
                printf "%-" w "s %-7s %14.6g %14.6g %12.4g %8s  %-5s  %s\n", name, better[name], mb, mh, iqr, change, wins "/" pairs, verdict
            }
        }
    ' "$out/dirs" "$out/values"
fi
echo "bench_ab: results kept in $out"
