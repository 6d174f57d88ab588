//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import "slices"

// targetKind names what the closed-loop driver issues its ops against.
type targetKind int

const (
	// tNull completes every op inline with correct data: the generator alone.
	tNull targetKind = iota
	// tCodec adds the four codec calls of one round trip and nothing else.
	tCodec
	// tWire is a bare wire.Conn <-> wire.Responder pair with an echo handler.
	tWire
	// tLoop is rmem.Client <-> rmem.Server over wire.Loopback.
	tLoop
	// tCluster is cluster.Client over Nodes loopback memory nodes.
	tCluster
	// tUDP is rmem.Client against a separate edmd process over localhost UDP.
	tUDP
)

func (k targetKind) transport() string {
	switch k {
	case tUDP:
		return "localhost UDP, two processes"
	case tNull, tCodec:
		return "none (in-process calls)"
	}
	return "wire.Loopback, one process"
}

// spec is one closed-loop op stream against one target. The five public
// workloads and the ladder's rungs are all specs, so every rung is driven,
// verified and timed by exactly the code that produces the gated numbers.
type spec struct {
	Name   string
	Why    string
	Target targetKind
	Nodes  int // tCluster only
	Window int // ops held in flight (loopback completes inline, so 1)
	Size   int // bytes per read/write
	// Op mix in percent; Alternate ignores it and alternates read, write.
	ReadPct, WritePct, RMWPct int
	Alternate                 bool
	// SplitPct is the share of reads and writes placed to straddle a
	// cluster extent boundary (on bare rmem the same addresses are ordinary).
	SplitPct int
	// FullTelemetry wires a registered registry, a wall clock and a trace
	// ring on both ends (the telemetry-overhead rung).
	FullTelemetry bool
	// MaxRate bounds the exact-latency buffer: samples kept per measured
	// second. It is touched in full during set-up so RSS does not depend on
	// how fast the run went.
	MaxRate int
}

// The slab every spec addresses: larger than the LLC, split into a
// prefilled read-only region, a write region that starts zeroed, and a page
// of fetch-add counter words. Extent-aligned so cluster boundaries fall
// inside both the read and the write region.
const (
	defaultSlabBytes = 64 << 20
	extentBytes      = 1 << 20 // cluster.DefaultExtentBytes
	counterWords     = 1024
	blockBytes       = 64 // granularity of op addresses and of the written map
)

var workloads = []spec{
	{
		Name:   "udp-read64-w1",
		Why:    "unloaded 64 B read round trip to a separate edmd over localhost UDP: syscalls, UDPServer.route, channel hop, wake-ups",
		Target: tUDP, Window: 1, Size: 64, ReadPct: 100, MaxRate: 200_000,
	},
	{
		Name:   "udp-mixed64-w32",
		Why:    "window 32, 60/30/10 read/write/fetch-add over UDP: recvmmsg batching, worker pool, session and shard locks under pipelining",
		Target: tUDP, Window: 32, Size: 64, ReadPct: 60, WritePct: 30, RMWPct: 10, MaxRate: 1_000_000,
	},
	{
		Name:   "loop-read64",
		Why:    "64 B reads over wire.Loopback in one goroutine: pure per-message CPU of codec, Conn, Responder, rmem; no kernel",
		Target: tLoop, Window: 1, Size: 64, ReadPct: 100, MaxRate: 3_000_000,
	},
	{
		Name:   "loop-bulk16k-rw",
		Why:    "alternating 16 KiB reads and writes over the loopback: per-byte cost (CRC32, codec copies, slab memcpy) dominates",
		Target: tLoop, Window: 1, Size: 16384, Alternate: true, MaxRate: 500_000,
	},
	{
		Name:   "cluster-loop-mixed256",
		Why:    "cluster.Client over 4 loopback nodes, 256 B 60/30/10 mix, 5% straddling an extent: routing, split/join, mirroring",
		Target: tCluster, Nodes: 4, Window: 1, Size: 256, ReadPct: 60, WritePct: 30, RMWPct: 10, SplitPct: 5, MaxRate: 2_000_000,
	},
}

// rungs are the extra specs behind the ladder and the difference metrics.
// loop-read64, udp-read64-w1 and cluster-loop-mixed256 double as rungs.
var rungs = []spec{
	{Name: "rung-null", Target: tNull, Window: 1, Size: 64, ReadPct: 100, MaxRate: 8_000_000},
	{Name: "rung-codec", Target: tCodec, Window: 1, Size: 64, ReadPct: 100, MaxRate: 6_000_000},
	{Name: "rung-wire", Target: tWire, Window: 1, Size: 64, ReadPct: 100, MaxRate: 4_000_000},
	{Name: "rung-cluster-read", Target: tCluster, Nodes: 2, Window: 1, Size: 64, ReadPct: 100, MaxRate: 3_000_000},
	{Name: "rung-cluster-write", Target: tCluster, Nodes: 2, Window: 1, Size: 64, WritePct: 100, MaxRate: 2_000_000},
	{Name: "rung-cluster-split", Target: tCluster, Nodes: 2, Window: 1, Size: 64, ReadPct: 100, SplitPct: 100, MaxRate: 2_000_000},
	{Name: "rung-telemetry-full", Target: tLoop, Window: 1, Size: 64, ReadPct: 100, FullTelemetry: true, MaxRate: 3_000_000},
	{Name: "rung-rmem-mixed256", Target: tLoop, Window: 1, Size: 256, ReadPct: 60, WritePct: 30, RMWPct: 10, SplitPct: 5, MaxRate: 3_000_000},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range rungs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef is one named metric: its unit, which way is better, and (for
// end-to-end metrics) the relative worsening that counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Doc    string  `json:"-"`
}

// endToEnd lists the metrics BENCHMARK.json holds to a bound: what a user
// of the memory service sees. BENCHMARK.json repeats names, units,
// directions and bounds. One bound per metric has to hold on every workload,
// so the time-based ones follow the noisiest (udp-read64-w1; see the spread
// table in README.md).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25, "verified completed ops / measured seconds"},
	{"lat_p50_us", "us", "lower", 0.25, "API call -> completion callback, median"},
	{"goodput_mb_per_s", "MB/s", "higher", 0.25, "read payload returned + write payload acked per second"},
	{"cpu_us_per_op", "us", "lower", 0.25, "on-CPU time of generator and server over the measured interval / ops"},
	{"rss_mb", "MB", "lower", 0.10, "peak RSS, generator + servers"},
	{"setup_s", "s", "lower", 0.25, "child start -> first measured op: spawn edmd, HELLO, prefill, warm-up"},
}

// Two metrics a user sees cannot sit under end_to_end in BENCHMARK.json and
// are listed per_layer there: fail_ratio is always 0 (the manifest wants
// metrics that are never 0; the command enforces it absolutely instead), and
// lat_p95_us has spread up to 32 % over ten runs on udp-read64-w1, beyond
// the largest bound the manifest allows. The program itself still treats
// lat_p95_us as end-to-end: the report, results.json, -compare and
// -selfcheck carry and judge it with the bound below.
const (
	failRatio = "fail_ratio"
	latP95    = "lat_p95_us"
)

var latP95Def = metricDef{latP95, "us", "lower", 0.25, "API call -> completion callback, 95th percentile"}

// endToEndShown is endToEnd with the p95 back in its place after the median.
var endToEndShown = slices.Insert(slices.Clone(endToEnd), 2, latP95Def)

// perLayer lists the single-layer metrics the traced run and the rungs
// fill, each measured from outside the layer. They carry no bound.
var perLayer = []metricDef{
	{failRatio, "ratio", "lower", 0, "(errors + retry-budget timeouts + verification mismatches) / ops attempted"},
	{latP95, "us", "lower", 0, latP95Def.Doc},
	{"driver.self_ns_per_op", "ns", "lower", 0, "the generator alone: ns/op against a target that completes inline"},
	{"driver.mlp_mean", "count", "higher", 0, "ops_per_s x mean latency: achieved outstanding ops"},
	{"driver.lat_p99_us", "us", "lower", 0, "99th percentile latency (ungated)"},
	{"driver.lat_p999_us", "us", "lower", 0, "99.9th percentile latency (ungated)"},
	{"driver.read_p50_us", "us", "lower", 0, "median latency of reads"},
	{"driver.write_p50_us", "us", "lower", 0, "median latency of writes"},
	{"driver.rmw_p50_us", "us", "lower", 0, "median latency of fetch-adds"},
	{"driver.split_p50_us", "us", "lower", 0, "median latency of ops straddling an extent boundary"},
	{"driver.allocs_per_op", "count", "lower", 0, "heap allocations in the generator process / ops"},
	{"driver.gc_pause_us", "us", "lower", 0, "GC stop-the-world time during the measured interval"},
	{"driver.callback_self_ns", "ns", "lower", 0, "traced: the benchmark's own completion callback (verification)"},
	{"wire.codec.encode_ns", "ns", "lower", 0, "per AppendEncode on the workload's message mix"},
	{"wire.codec.decode_ns", "ns", "lower", 0, "per DecodeInto on the workload's message mix"},
	{"wire.codec.wire_bytes_per_op", "B", "lower", 0, "request + response datagram bytes per op"},
	{"wire.codec.payload_share", "ratio", "higher", 0, "payload bytes / wire bytes"},
	{"rmem.client.issue_self_ns", "ns", "lower", 0, "traced: API entry -> Pipe.Send entry (window, pools, CallC, encode; cluster routing on the cluster workload)"},
	{"rmem.client.post_send_self_ns", "ns", "lower", 0, "traced: Pipe.Send return -> API return (retry timer arm, pool return)"},
	{"rmem.client.complete_self_ns", "ns", "lower", 0, "traced: Deliver entry -> callback entry plus the return path (decode, ID match, timer stop, pool return)"},
	{"wire.conn.retransmits", "count", "lower", 0, "ConnStats.Retransmit over the measured interval (late responses over UDP; 0 on loopback)"},
	{"wire.conn.timeouts", "count", "lower", 0, "ConnStats.Timeouts (expected 0)"},
	{"wire.conn.strays", "count", "lower", 0, "ConnStats.Stray: responses that arrived after their retransmission was answered"},
	{"wire.responder.self_ns", "ns", "lower", 0, "Responder.Deliver minus handler and reply send (decode, dedup window, response cache, encode)"},
	{"wire.responder.replays", "count", "lower", 0, "requests answered from the dedup cache (one per retransmission)"},
	{"rmem.server.handle_read_ns", "ns", "lower", 0, "direct Server.Handle call, RREQ of the workload's size"},
	{"rmem.server.handle_write_ns", "ns", "lower", 0, "direct Server.Handle call, WREQ of the workload's size"},
	{"rmem.server.handle_rmw_ns", "ns", "lower", 0, "direct Server.Handle call, fetch-add"},
	{"rmem.server.service_ns", "ns", "lower", 0, "traced: mean handler time per request (loopback: handler span; UDP: edmd rmem_server_op_latency_ns)"},
	{"rmem.server.errors", "count", "lower", 0, "requests answered with a non-OK status (expected 0)"},
	{"wire.loopback.send_self_ns", "ns", "lower", 0, "traced: both loopback Sends minus what they deliver into"},
	{"wire.udp.send_ns", "ns", "lower", 0, "traced: inside UDPClient.Send/SendBatch, per call"},
	{"wire.udp.datagrams_per_send", "count", "higher", 0, "traced: datagrams per Send/SendBatch call"},
	{"wire.udp.rtt_ns", "ns", "lower", 0, "traced: Send return -> matching Deliver entry (kernel both ways, server process, wake-ups)"},
	{"wire.udp.server_cpu_us_per_op", "us", "lower", 0, "edmd user+sys CPU / ops"},
	{"wire.udp.client_cpu_us_per_op", "us", "lower", 0, "generator user+sys CPU / ops"},
	{"wire.udp.server_ctxsw_per_op", "count", "lower", 0, "edmd context switches (all threads) / ops"},
	{"cluster.route_overhead_ns", "ns", "lower", 0, "cluster-loop-mixed256 ns/op minus the identical op stream on bare rmem"},
	{"cluster.subops_per_op", "count", "lower", 0, "node-client ops issued / cluster ops"},
	{"cluster.split_ops", "count", "lower", 0, "ops split at an extent boundary during the measured interval"},
	{"cluster.failovers", "count", "lower", 0, "segments re-routed to the other replica (expected 0)"},
	{"cluster.map_epoch", "count", "lower", 0, "route-table epoch at the end (expected 0)"},
	{"telemetry.full_overhead_ns", "ns", "lower", 0, "loop-read64 stream with registry + NowNS + TraceRing on both ends, minus default wiring"},
	{"ladder.null_ns", "ns", "lower", 0, "ns/op, loop-read64 stream, generator only"},
	{"ladder.codec_ns", "ns", "lower", 0, "ns/op, + the four codec calls of a round trip"},
	{"ladder.wire_ns", "ns", "lower", 0, "ns/op, + Conn.CallC <-> Responder over the loopback (echo handler)"},
	{"ladder.rmem_ns", "ns", "lower", 0, "ns/op, + rmem.Client and rmem.Server"},
	{"ladder.cluster_read_ns", "ns", "lower", 0, "ns/op, + cluster routing (2 nodes, primary-only reads)"},
	{"ladder.cluster_write_ns", "ns", "lower", 0, "ns/op, 64 B writes mirrored to both replicas"},
	{"ladder.cluster_split_ns", "ns", "lower", 0, "ns/op, 64 B reads that all straddle an extent boundary"},
	{"ladder.udp_ns", "ns", "lower", 0, "ns/op, rmem over localhost UDP between two processes, window 1"},
	{"trace.overhead_pct", "%", "lower", 0, "(untraced - traced ops_per_s) / untraced"},
	{"trace.budget_gap_pct", "%", "lower", 0, "|op span - sum of layer self times| / op span"},
	{"harness.build_s", "s", "lower", 0, "go build of edmd (measures the Go build cache, not the stack)"},
}

// ladderRungs maps each ladder metric to the spec whose ns/op fills it, in
// stacking order, and names the rung it is a step over.
var ladderRungs = []struct{ Metric, Spec, Over string }{
	{"ladder.null_ns", "rung-null", ""},
	{"ladder.codec_ns", "rung-codec", "ladder.null_ns"},
	{"ladder.wire_ns", "rung-wire", "ladder.codec_ns"},
	{"ladder.rmem_ns", "loop-read64", "ladder.wire_ns"},
	{"ladder.cluster_read_ns", "rung-cluster-read", "ladder.rmem_ns"},
	{"ladder.cluster_write_ns", "rung-cluster-write", "ladder.cluster_read_ns"},
	{"ladder.cluster_split_ns", "rung-cluster-split", "ladder.cluster_read_ns"},
	{"ladder.udp_ns", "udp-read64-w1", "ladder.rmem_ns"},
}

// rungSpecs is every spec a full per-layer pass runs once, in run order.
var rungSpecs = []string{
	"rung-null", "rung-codec", "rung-wire", "loop-read64",
	"rung-cluster-read", "rung-cluster-write", "rung-cluster-split",
	"udp-read64-w1", "rung-telemetry-full", "rung-rmem-mixed256",
	"cluster-loop-mixed256",
}
