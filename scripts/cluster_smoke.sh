#!/bin/sh
# Cluster failover smoke: boot a 4-node memory cluster as two edmd processes
# (three nodes in one via -nodes, plus a separate victim process), drive the
# sharded dual-homed cluster service over real UDP with edmload, kill the
# victim mid-run, and assert that the run completes with zero failed ops,
# that the client's /metrics serves its node clients' shared rmem_client_* and
# wire_client_* families next to cluster_* (cluster_remirrors_owed included),
# that cluster_failover_total went positive there, and that the final report
# counts the victim's eviction and ends with its re-mirror done: the pass
# edmload runs after the replay moved more than 0 bytes and left owed 0.
#
# Usage: scripts/cluster_smoke.sh
set -eu
cd "$(dirname "$0")/.."

go build -o /tmp/edmd_csmoke ./cmd/edmd
go build -o /tmp/edmload_csmoke ./cmd/edmload

mainlog=$(mktemp)
victimlog=$(mktemp)
loadlog=$(mktemp)
/tmp/edmd_csmoke -listen 127.0.0.1:0 -nodes 3 -slab 8388608 >"$mainlog" 2>&1 &
mainpid=$!
/tmp/edmd_csmoke -listen 127.0.0.1:0 -slab 8388608 >"$victimlog" 2>&1 &
victimpid=$!
loadpid=""
trap 'kill "$mainpid" "$victimpid" $loadpid 2>/dev/null || true; rm -f "$mainlog" "$victimlog" "$loadlog"' EXIT

# Wait for all four node addresses.
n0=""; n1=""; n2=""; victim=""
for _ in $(seq 1 50); do
    n0=$(sed -n 's/.*node 0 listening on \([^ ]*\).*/\1/p' "$mainlog" | head -1)
    n1=$(sed -n 's/.*node 1 listening on \([^ ]*\).*/\1/p' "$mainlog" | head -1)
    n2=$(sed -n 's/.*node 2 listening on \([^ ]*\).*/\1/p' "$mainlog" | head -1)
    victim=$(sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$victimlog" | head -1)
    [ -n "$n0" ] && [ -n "$n1" ] && [ -n "$n2" ] && [ -n "$victim" ] && break
    sleep 0.1
done
if [ -z "$n0" ] || [ -z "$n1" ] || [ -z "$n2" ] || [ -z "$victim" ]; then
    echo "cluster_smoke: daemons never reported their addresses:" >&2
    cat "$mainlog" "$victimlog" >&2
    exit 1
fi

# A long closed-loop run so the kill lands mid-flight; the tight retry budget
# keeps each dead-node op to ~10ms before it fails over.
/tmp/edmload_csmoke -cluster "$n0,$n1,$n2,$victim" -metrics 127.0.0.1:0 \
    -window 2 -retry 5ms -retries 1 \
    -profile memcached -count 40000 -seed 1 >"$loadlog" 2>&1 &
loadpid=$!

# Wait for the client's metrics endpoint (printed just before the replay),
# give the run a head start, then kill the victim node mid-run.
admin=""
for _ in $(seq 1 100); do
    admin=$(sed -n 's|.*metrics on http://\([^/]*\)/metrics.*|\1|p' "$loadlog" | head -1)
    [ -n "$admin" ] && break
    if ! kill -0 "$loadpid" 2>/dev/null; then break; fi
    sleep 0.1
done
if [ -z "$admin" ]; then
    echo "cluster_smoke: edmload never reported its metrics address:" >&2
    cat "$loadlog" >&2
    exit 1
fi
sleep 0.3

# The node clients' shared families are on the same endpoint, counting.
scrape=$(curl -fsS "http://$admin/metrics" 2>/dev/null || true)
for series in rmem_client_issued_total wire_client_datagrams_total; do
    v=$(printf '%s\n' "$scrape" | sed -n "s/^$series \([0-9]*\)\$/\1/p")
    if [ "${v:-0}" -eq 0 ]; then
        echo "cluster_smoke: edmload's /metrics has no counting $series:" >&2
        printf '%s\n' "$scrape" >&2
        exit 1
    fi
done

if ! printf '%s\n' "$scrape" | grep -Eq '^cluster_remirrors_owed [0-9]+$'; then
    echo "cluster_smoke: edmload's /metrics has no cluster_remirrors_owed gauge:" >&2
    printf '%s\n' "$scrape" >&2
    exit 1
fi

kill "$victimpid"

# The failover counter must go positive while the run is still in flight.
failovers=0
for _ in $(seq 1 150); do
    if ! kill -0 "$loadpid" 2>/dev/null; then break; fi
    failovers=$(curl -fsS "http://$admin/metrics" 2>/dev/null \
        | sed -n 's/^cluster_failover_total \([0-9]*\)$/\1/p')
    failovers=${failovers:-0}
    [ "$failovers" -gt 0 ] && break
    sleep 0.2
done

if ! wait "$loadpid"; then
    echo "cluster_smoke: edmload failed:" >&2
    cat "$loadlog" >&2
    exit 1
fi
loadpid=""

# Zero failed ops: every op survived the kill on the other replica.
if ! grep -Eq 'issued [0-9]+ done [0-9]+ failed 0' "$loadlog"; then
    echo "cluster_smoke: run lost ops across the node kill:" >&2
    cat "$loadlog" >&2
    exit 1
fi
# Failovers: live from /metrics mid-run, or from the final report line.
if [ "$failovers" -eq 0 ]; then
    failovers=$(sed -n 's/.*failovers \([0-9]*\).*/\1/p' "$loadlog" | head -1)
    failovers=${failovers:-0}
fi
if [ "$failovers" -eq 0 ]; then
    echo "cluster_smoke: kill produced no failovers:" >&2
    cat "$loadlog" >&2
    exit 1
fi

# The victim left the map at its first op that the partner answered.
evictions=$(sed -n 's/.*evictions \([0-9]*\).*/\1/p' "$loadlog" | head -1)
if [ "${evictions:-0}" -lt 1 ]; then
    echo "cluster_smoke: the killed victim was never evicted:" >&2
    cat "$loadlog" >&2
    exit 1
fi

# The re-mirror pass after the replay copied the victim's extents and left
# nothing owed.
moved=$(sed -n 's/.*cluster faults.* moved \([0-9]*\) B .*/\1/p' "$loadlog" | head -1)
if [ "${moved:-0}" -eq 0 ] || ! grep -Eq 'cluster faults.* owed 0$' "$loadlog"; then
    echo "cluster_smoke: the victim's re-mirror did not run to completion:" >&2
    cat "$loadlog" >&2
    exit 1
fi

echo "cluster_smoke: ok (nodes $n0,$n1,$n2 victim $victim failovers $failovers evictions $evictions moved $moved B)"
