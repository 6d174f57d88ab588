package rmem

import (
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// opLabel is the `op` label value for a request kind: the memory-operation
// vocabulary rather than the wire kind name.
func opLabel(k wire.Kind) string {
	switch k {
	case wire.KindHello:
		return "hello"
	case wire.KindBye:
		return "bye"
	case wire.KindRREQ:
		return "read"
	case wire.KindWREQ:
		return "write"
	case wire.KindRMWREQ:
		return "rmw"
	}
	return "other"
}

// opSeries renders `base{op="..."}` for a request kind.
func opSeries(base string, k wire.Kind) string {
	return base + `{op="` + opLabel(k) + `"}`
}

// ServerMetrics holds the memory node's counters and per-opcode service-time
// histograms, pre-registered so Handle only touches atomics. Arrays are
// indexed by the request's wire.Kind; non-request slots stay nil.
type ServerMetrics struct {
	Ops          [wire.NumKinds]*telemetry.Counter
	Latency      [wire.NumKinds]*telemetry.Histogram // ns; populated only when a clock is wired
	Errors       *telemetry.Counter
	BytesRead    *telemetry.Counter
	BytesWritten *telemetry.Counter
	// ModeledDRAMPS accumulates the memctl-modeled DRAM service time in
	// picoseconds (sim.Time units).
	ModeledDRAMPS *telemetry.Counter
}

// NewServerMetrics registers the server family (`rmem_server_*`) in r. A nil
// registry yields working but unexported metrics.
func NewServerMetrics(r *telemetry.Registry) *ServerMetrics {
	m := &ServerMetrics{
		Errors:        r.Counter("rmem_server_errors_total"),
		BytesRead:     r.Counter("rmem_server_bytes_read_total"),
		BytesWritten:  r.Counter("rmem_server_bytes_written_total"),
		ModeledDRAMPS: r.Counter("rmem_server_modeled_dram_ps_total"),
	}
	for k := wire.KindHello; k <= wire.KindRMWRESP; k++ {
		if k.IsRequest() {
			m.Ops[k] = r.Counter(opSeries("rmem_server_ops_total", k))
			m.Latency[k] = r.Histogram(opSeries("rmem_server_op_latency_ns", k))
		}
	}
	return m
}

// ClientMetrics holds the client's window/completion counters and per-opcode
// end-to-end latency histograms, plus the underlying reliable layer's
// ConnMetrics (the two register as one coherent family set). One instance
// may back several clients; the series then aggregate over them.
type ClientMetrics struct {
	Issued     *telemetry.Counter
	Done       *telemetry.Counter
	Failed     *telemetry.Counter
	WindowFull *telemetry.Counter
	// Window tracks the in-flight operation count (the occupied share of the
	// bounded outstanding window), summed over the clients sharing it.
	Window  *telemetry.Gauge
	Latency [wire.NumKinds]*telemetry.Histogram // ns; populated only when a clock is wired
	Conn    *wire.ConnMetrics
}

// NewClientMetrics registers the client family (`rmem_client_*` plus
// `wire_client_*`) in r.
func NewClientMetrics(r *telemetry.Registry) *ClientMetrics {
	m := &ClientMetrics{
		Issued:     r.Counter("rmem_client_issued_total"),
		Done:       r.Counter("rmem_client_done_total"),
		Failed:     r.Counter("rmem_client_failed_total"),
		WindowFull: r.Counter("rmem_client_window_full_total"),
		Window:     r.Gauge("rmem_client_window"),
		Conn:       wire.NewConnMetrics(r),
	}
	for k := wire.KindHello; k <= wire.KindRMWRESP; k++ {
		if k.IsRequest() {
			m.Latency[k] = r.Histogram(opSeries("rmem_client_op_latency_ns", k))
		}
	}
	return m
}
