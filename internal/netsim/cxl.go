package netsim

import (
	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CXL models a PCIe/CXL switch fabric: 256 B flits and link-level
// credit-based flow control on the input-queued switch (iqSwitch). Its
// unloaded latency is excellent (thin stack, ~100 ns per switch hop), but
// under load the credit loop fails exactly as §4.3.1 describes: an incast
// victim egress holds flits in ingress queues, those flits pin credits, and
// the deficit blocks every other flow crossing the same ingress —
// head-of-line blocking equivalent to PFC's.
type CXL struct{}

// CXL's parameters.
const (
	// cxlFlitBytes is the transfer granularity: a CXL 3.0 flit.
	cxlFlitBytes = 256
	// cxlCredits is the credit pool of each sender link, in flits.
	cxlCredits = 8
	// cxlHopLatency is the per-switch-hop latency (Pond's 100 ns).
	cxlHopLatency = 100 * sim.Nanosecond
	// cxlStackLatency is the endpoint controller latency.
	cxlStackLatency = 70 * sim.Nanosecond
	// cxlFlitOverhead is the per-flit framing (CRC, sequence, DLLP share).
	cxlFlitOverhead = 16
)

// Name implements Protocol.
func (CXL) Name() string { return "CXL" }

// WireBytes implements Protocol.
func (CXL) WireBytes(n int) int { return n + len(packetize(n, cxlFlitBytes))*cxlFlitOverhead }

// ReqWireBytes implements Protocol.
func (CXL) ReqWireBytes() int { return 64 + cxlFlitOverhead } // address + framing

// Run implements Protocol.
func (c CXL) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(c.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		return c.build(cfg, eng, track).arrive
	})
}

// build sets up CXL's switch: 256 B flits, each sender holding cxlCredits.
func (c CXL) build(cfg Config, eng *sim.Engine, track *tracker) *iqSwitch {
	s := newIQSwitch(cfg, eng, track, iqParams{
		stack: cxlStackLatency, hop: cxlHopLatency, unit: cxlFlitBytes,
		reqWire: c.ReqWireBytes(),
		wire:    func(n int) int { return n + cxlFlitOverhead }, // CRC, sequence
	})
	s.flow = &cxlFlow{s: s, spent: make([]int, cfg.Nodes)}
	return s
}

// cxlFlow is CXL's credit loop: a sender spends one of its cxlCredits per
// flit, and a flit leaving its ingress returns the credit one propagation
// later.
type cxlFlow struct {
	s     *iqSwitch
	spent []int // per sender: credits not yet returned
}

func (f *cxlFlow) mayTransmit(i int) bool { return f.spent[i] < cxlCredits }
func (f *cxlFlow) started(i int)          { f.spent[i]++ }
func (f *cxlFlow) joined(int, *iqPkt)     {}
func (f *cxlFlow) left(i int, _ *iqPkt) {
	f.s.eng.After(edm.DefaultPropDelay, func() {
		f.spent[i]--
		f.s.nicPump(i)
	})
}
