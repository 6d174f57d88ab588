package wire

import (
	"repro/internal/telemetry"

	"strconv"
)

// kindLabel renders the `kind="..."` label suffix for per-kind series.
func kindLabel(base string, k Kind) string {
	return base + `{kind=` + strconv.Quote(k.String()) + `}`
}

// ConnMetrics holds the client reliability layer's counters, pre-registered
// so the hot path only touches atomics. One instance may back several Conns
// (the series then aggregate); passing nil to NewConn builds a private,
// unregistered instance.
type ConnMetrics struct {
	// Datagrams transmitted, including retransmissions.
	Datagrams *telemetry.Counter
	// Requests issued (one per CallC), by request kind.
	Requests [NumKinds]*telemetry.Counter
	// Responses matched to a pending call; RecvByKind splits by kind.
	Responses  *telemetry.Counter
	RecvByKind [NumKinds]*telemetry.Counter
	// Retransmissions, datagrams matching no pending call, undecodable
	// datagrams, and calls that exhausted their retry budget.
	Retransmits *telemetry.Counter
	Stray       *telemetry.Counter
	Garbage     *telemetry.Counter
	Timeouts    *telemetry.Counter
	// InFlight tracks calls issued but not yet completed.
	InFlight *telemetry.Gauge
}

// NewConnMetrics registers the client family (`wire_client_*`) in r. A nil
// registry yields working but unexported metrics.
func NewConnMetrics(r *telemetry.Registry) *ConnMetrics {
	m := &ConnMetrics{
		Datagrams:   r.Counter("wire_client_datagrams_total"),
		Responses:   r.Counter("wire_client_responses_total"),
		Retransmits: r.Counter("wire_client_retransmits_total"),
		Stray:       r.Counter("wire_client_stray_total"),
		Garbage:     r.Counter("wire_client_garbage_total"),
		Timeouts:    r.Counter("wire_client_timeouts_total"),
		InFlight:    r.Gauge("wire_client_inflight"),
	}
	for k := KindHello; k <= kindMax; k++ {
		if k.IsRequest() {
			m.Requests[k] = r.Counter(kindLabel("wire_client_requests_total", k))
			m.RecvByKind[k.Response()] = r.Counter(kindLabel("wire_client_recv_total", k.Response()))
		}
	}
	return m
}

// ResponderMetrics holds the server reliability layer's counters. A server
// shares one instance across every client session, so the series aggregate
// over sessions.
type ResponderMetrics struct {
	// Fresh requests executed; RecvByKind counts decoded request datagrams
	// by kind, duplicates included.
	Requests   *telemetry.Counter
	RecvByKind [NumKinds]*telemetry.Counter
	// Retransmissions answered with their slot's retained response, requests
	// older than their slot's newest (dropped: the client had retired the
	// call), undecodable datagrams, and datagrams that decoded to a
	// non-request kind or named a call slot beyond the session's window.
	Duplicates *telemetry.Counter
	Stale      *telemetry.Counter
	Garbage    *telemetry.Counter
	Rejected   *telemetry.Counter
}

// NewResponderMetrics registers the server family (`wire_server_*`) in r.
func NewResponderMetrics(r *telemetry.Registry) *ResponderMetrics {
	m := &ResponderMetrics{
		Requests:   r.Counter("wire_server_requests_total"),
		Duplicates: r.Counter("wire_server_replays_total"),
		Stale:      r.Counter("wire_server_stale_total"),
		Garbage:    r.Counter("wire_server_garbage_total"),
		Rejected:   r.Counter("wire_server_rejected_total"),
	}
	for k := KindHello; k <= kindMax; k++ {
		if k.IsRequest() {
			m.RecvByKind[k] = r.Counter(kindLabel("wire_server_recv_total", k))
		}
	}
	return m
}

// UDPRxMetrics counts how a UDP receive loop waits on an empty socket (see
// pollWindow). Parks per op near 1 is the parked regime — every op pays a
// wake-up — and near 0 the polled one; empty polls per op is what the
// polling costs.
type UDPRxMetrics struct {
	Parks      *telemetry.Counter // waits in the netpoller, the poll window having passed
	EmptyPolls *telemetry.Counter // polls that found nothing and yielded
}

func newUDPRxMetrics(r *telemetry.Registry) UDPRxMetrics {
	return UDPRxMetrics{
		Parks:      r.Counter("wire_udp_rx_parks_total"),
		EmptyPolls: r.Counter("wire_udp_rx_empty_polls_total"),
	}
}

// UDPTxMetrics counts what a UDP send arena transmits, in its flush.
// Messages per datagram is the bundle factor: 1 when every message left in
// a datagram of its own, up to the number of replies a receive batch
// produced (or requests a client queued) when they bundle. The mean hides
// how the datagrams split: a few lone messages are few messages but as many
// sends, so Lone counts them apart.
type UDPTxMetrics struct {
	Datagrams *telemetry.Counter // datagrams sent, bundles and lone messages alike
	Msgs      *telemetry.Counter // messages those datagrams carried
	Lone      *telemetry.Counter // datagrams that carried one message
}

func newUDPTxMetrics(r *telemetry.Registry) UDPTxMetrics {
	return UDPTxMetrics{
		Datagrams: r.Counter("wire_udp_tx_datagrams_total"),
		Msgs:      r.Counter("wire_udp_tx_msgs_total"),
		Lone:      r.Counter("wire_udp_tx_lone_total"),
	}
}

// UDPServerMetrics counts session lifecycle events on the UDP listener, how
// its ingress loops wait (Rx) and what they send (Tx), summed over the loops.
type UDPServerMetrics struct {
	Started *telemetry.Counter // sessions opened (first datagram from a remote)
	Resets  *telemetry.Counter // sessions torn down by a fresh HELLO (token mismatch)
	Expired *telemetry.Counter // sessions reclaimed idle by their loop's sweep
	Retired *telemetry.Counter // sessions closed by BYE
	Active  *telemetry.Gauge   // live sessions
	Rx      UDPRxMetrics
	Tx      UDPTxMetrics
}

// NewUDPServerMetrics registers the listener family (`wire_udp_*`) in r.
func NewUDPServerMetrics(r *telemetry.Registry) *UDPServerMetrics {
	return &UDPServerMetrics{
		Started: r.Counter("wire_udp_sessions_started_total"),
		Resets:  r.Counter("wire_udp_session_resets_total"),
		Expired: r.Counter("wire_udp_sessions_expired_total"),
		Retired: r.Counter("wire_udp_sessions_retired_total"),
		Active:  r.Gauge("wire_udp_sessions_active"),
		Rx:      newUDPRxMetrics(r),
		Tx:      newUDPTxMetrics(r),
	}
}
