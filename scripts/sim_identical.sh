#!/bin/sh
# Check that a change leaves every simulator output byte for byte as it was:
# run the same seeded commands in an export of a base ref and in the working
# tree, and diff what they print. The commands are
#   edmbench -experiment all -nodes 16 -ops 500 -fig7ops 100
#   edmsim -scenario S      for every builtin scenario S (edmsim -list-scenarios)
#   edmsim -scenario-file F for every spec F in cmd/edmsim/testdata/*.json
#   each program under examples/
# and their stdout and stderr are compared. The spec files are read from the
# working tree on both sides, so the base runs a spec it may not have: fault
# paths that no builtin reaches are checked too. A refactor of the simulators
# (internal/edm, internal/netsim, internal/sched, ...) must pass it; a change
# meant to move a number fails it and says where.
#
# Usage: scripts/sim_identical.sh <base-ref>
#   base-ref  commit to compare the working tree against (e.g. HEAD~1)
# Exit status: 0 when every output is identical, 1 on any difference or
# failed command.
set -eu
cd "$(dirname "$0")/.."

base="${1:?usage: scripts/sim_identical.sh <base-ref>}"
start=$(date +%s)
out=$(mktemp -d "${TMPDIR:-/tmp}/sim_identical.XXXXXX")
trap 'rm -rf "$out"' EXIT

# The base tree is an export of the ref, not a checkout: nothing to
# unregister afterwards, and it cannot be committed to by accident.
mkdir "$out/tree"
git archive "$base" | tar -x -C "$out/tree"

# outputs TREE NAME: build the tools in TREE into $out/NAME.bin and write
# each command's output to its own file under $out/NAME. A failing command
# ends the script, its output shown.
outputs() {
    bin="$out/$2.bin"
    dst="$out/$2"
    mkdir -p "$bin" "$dst"
    (cd "$1" && go build -o "$bin/" ./cmd/edmbench ./cmd/edmsim ./examples/...)
    run "$dst/edmbench" "$bin/edmbench" -experiment all -nodes 16 -ops 500 -fig7ops 100
    run "$dst/scenarios" "$bin/edmsim" -list-scenarios
    for s in $(awk '{ print $1 }' "$dst/scenarios"); do
        run "$dst/scenario-$s" "$bin/edmsim" -scenario "$s"
    done
    for f in cmd/edmsim/testdata/*.json; do
        [ -e "$f" ] || continue
        run "$dst/spec-$(basename "$f" .json)" "$bin/edmsim" -scenario-file "$f"
    done
    for d in "$1"/examples/*/; do
        e=$(basename "$d")
        run "$dst/example-$e" "$bin/$e"
    done
}

# run FILE CMD...: run CMD with its stdout and stderr in FILE.
run() {
    f="$1"
    shift
    "$@" >"$f" 2>&1 || {
        echo "sim_identical: $* failed:" >&2
        cat "$f" >&2
        exit 1
    }
}

outputs "$out/tree" base
outputs . head

n=$(ls "$out/head" | wc -l)
if ! diff -r "$out/base" "$out/head" >"$out/diff"; then
    head -n 100 "$out/diff"
    echo "sim_identical: $(grep -c '^diff\|^Only' "$out/diff") of $n outputs differ from $base ($(($(date +%s) - start)) s)" >&2
    exit 1
fi
echo "sim_identical: $n outputs identical to $base in $(($(date +%s) - start)) s"
