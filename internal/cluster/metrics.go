package cluster

import (
	"strconv"

	"repro/internal/telemetry"
)

// Metrics holds the cluster client's counters, pre-registered so the routed
// hot path only touches atomics. NodeOps is indexed by node.
type Metrics struct {
	// NodeOps counts requests routed to each node (primary, mirror, and
	// failover traffic alike).
	NodeOps []*telemetry.Counter
	// SplitOps counts ops that spanned an extent boundary and were split.
	SplitOps *telemetry.Counter
	// Failovers counts segments that fell back to the other replica after a
	// retry-budget timeout (reads re-routed to the mirror; writes or RMWs
	// acked by only one replica).
	Failovers *telemetry.Counter
	// Evictions counts nodes taken out of the map (MarkDead, or a replica
	// that timed out while its partner answered).
	Evictions *telemetry.Counter
	// Epoch mirrors the active map epoch.
	Epoch *telemetry.Gauge
	// RebalanceExtents/RebalanceBytes count extent copies driven by epoch
	// changes; RebalanceNS times each whole rebalance pass.
	RebalanceExtents *telemetry.Counter
	RebalanceBytes   *telemetry.Counter
	RebalanceNS      *telemetry.Histogram
	// RebalanceErrors counts failed Rebalance passes. Each leaves the
	// extents it did not copy owed to the next call; RemirrorsOwed shows
	// how many.
	RebalanceErrors *telemetry.Counter
	// RemirrorsOwed is the number of extents not yet on the map's pair in
	// sync: each has a holder that awaits its copy, or no node in the map
	// that holds its acked writes. Rebalance takes it to zero.
	RemirrorsOwed *telemetry.Gauge
}

// NewMetrics registers the cluster client family (`cluster_*`) in r for a
// cluster of nodes nodes. A nil registry yields working but unexported
// metrics.
func NewMetrics(r *telemetry.Registry, nodes int) *Metrics {
	m := &Metrics{
		SplitOps:         r.Counter("cluster_split_ops_total"),
		Failovers:        r.Counter("cluster_failover_total"),
		Evictions:        r.Counter("cluster_evictions_total"),
		Epoch:            r.Gauge("cluster_map_epoch"),
		RebalanceExtents: r.Counter("cluster_rebalance_extents_total"),
		RebalanceBytes:   r.Counter("cluster_rebalance_bytes_total"),
		RebalanceNS:      r.Histogram("cluster_rebalance_duration_ns"),
		RebalanceErrors:  r.Counter("cluster_rebalance_errors_total"),
		RemirrorsOwed:    r.Gauge("cluster_remirrors_owed"),
	}
	m.NodeOps = make([]*telemetry.Counter, nodes)
	for n := range m.NodeOps {
		m.NodeOps[n] = r.Counter(`cluster_client_node_ops_total{node="` + strconv.Itoa(n) + `"}`)
	}
	return m
}
