#!/bin/sh
# End-to-end observability smoke: boot edmd with the HTTP admin endpoint,
# push a short edmload run through it over real UDP, then assert that
# /healthz answers, /metrics exposes the per-opcode series the run must
# have populated, and the run's BYE retired its session. A second, pipelined
# (-window 32) run then checks that edmd's replies bundle across two real
# processes. Exercises the full path a dashboard would scrape.
#
# Usage: scripts/metrics_smoke.sh
set -eu
cd "$(dirname "$0")/.."

go build -o /tmp/edmd_smoke ./cmd/edmd
go build -o /tmp/edmload_smoke ./cmd/edmload

log=$(mktemp)
/tmp/edmd_smoke -listen 127.0.0.1:0 -metrics 127.0.0.1:0 -trace-ops 64 \
    -slab 1048576 >"$log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -f "$log"' EXIT

# Wait for both listen lines (UDP data plane, HTTP admin plane).
udp=""
admin=""
for _ in $(seq 1 50); do
    udp=$(sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$log" | head -1)
    admin=$(sed -n 's|.*metrics on http://\([^/]*\)/metrics.*|\1|p' "$log" | head -1)
    [ -n "$udp" ] && [ -n "$admin" ] && break
    sleep 0.1
done
if [ -z "$udp" ] || [ -z "$admin" ]; then
    echo "metrics_smoke: edmd never reported its addresses:" >&2
    cat "$log" >&2
    exit 1
fi

/tmp/edmload_smoke -addr "$udp" -profile memcached -count 200 -seed 1

health=$(curl -fsS "http://$admin/healthz")
if [ "$health" != "ok" ]; then
    echo "metrics_smoke: /healthz said '$health', want 'ok'" >&2
    exit 1
fi

metrics=$(curl -fsS "http://$admin/metrics")
for want in \
    'rmem_server_ops_total{op="read"}' \
    'rmem_server_ops_total{op="write"}' \
    'rmem_server_op_latency_ns_bucket{op="read"' \
    'rmem_server_op_latency_ns_bucket{op="write"' \
    'wire_udp_sessions_started_total' \
    'wire_udp_rx_parks_total' \
    'wire_udp_rx_empty_polls_total' \
    'wire_udp_tx_datagrams_total' \
    'wire_udp_tx_msgs_total' \
    'wire_udp_tx_lone_total' \
    'wire_server_requests_total'; do
    if ! printf '%s\n' "$metrics" | grep -qF "$want"; then
        echo "metrics_smoke: /metrics missing $want" >&2
        printf '%s\n' "$metrics" >&2
        exit 1
    fi
done

# Session lifecycle: edmload's run ends in a BYE, which retires the one
# session it opened, so none is left live.
active=$(printf '%s\n' "$metrics" | sed -n 's/^wire_udp_sessions_active \([0-9-]*\)$/\1/p')
retired=$(printf '%s\n' "$metrics" | sed -n 's/^wire_udp_sessions_retired_total \([0-9]*\)$/\1/p')
if [ "$active" != "0" ] || [ -z "$retired" ] || [ "$retired" -lt 1 ]; then
    echo "metrics_smoke: after the run's BYE want wire_udp_sessions_active 0 and" \
        "wire_udp_sessions_retired_total >= 1, got '$active' and '$retired'" >&2
    printf '%s\n' "$metrics" | grep '^wire_udp_session' >&2
    exit 1
fi

# Bundling between two processes: a window-32 run's replies share
# datagrams, at least 4 messages per datagram (TestUDPBundlesForm's floor
# for the same workload in one process). Counted over this run alone.
counter() {
    curl -fsS "http://$admin/metrics" | sed -n "s/^$1 \([0-9]*\)$/\1/p"
}
d0=$(counter wire_udp_tx_datagrams_total)
m0=$(counter wire_udp_tx_msgs_total)
/tmp/edmload_smoke -addr "$udp" -profile fixed64 -count 20000 -window 32 -seed 2
dgrams=$(($(counter wire_udp_tx_datagrams_total) - d0))
msgs=$(($(counter wire_udp_tx_msgs_total) - m0))
if [ "$dgrams" -le 0 ] || [ "$msgs" -lt $((4 * dgrams)) ]; then
    echo "metrics_smoke: window-32 run: edmd sent $msgs messages in $dgrams" \
        "datagrams, want >= 4 messages per datagram" >&2
    exit 1
fi

traces=$(curl -fsS "http://$admin/debug/traceops")
if ! printf '%s\n' "$traces" | grep -q '"stage"'; then
    echo "metrics_smoke: /debug/traceops has no records" >&2
    exit 1
fi

echo "metrics_smoke: ok (udp $udp admin $admin, window-32 replies $msgs messages in $dgrams datagrams)"
