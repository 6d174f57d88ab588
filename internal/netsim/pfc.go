package netsim

import (
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// PFC models lossless Ethernet (priority flow control) under an RDMA-class
// stack, on the input-queued switch (iqSwitch): each ingress FIFO pauses
// its sender above pfcXoffBytes and resumes it below pfcXonBytes.
// Losslessness costs head-of-line blocking, the failure mode §2.4
// limitation 6 describes. (DCQCN's rate control is subsumed by the pause
// behaviour at this timescale.)
type PFC struct{}

// PFC's pause thresholds, in bytes queued at an ingress.
const (
	pfcXoffBytes = 20 << 10
	pfcXonBytes  = 10 << 10
)

// Name implements Protocol.
func (PFC) Name() string { return "PFC" }

// WireBytes implements Protocol.
func (PFC) WireBytes(n int) int { return stackWire(transport.StackRoCE, n) }

// ReqWireBytes implements Protocol.
func (PFC) ReqWireBytes() int { return transport.WireBytes(transport.StackRoCE, 8) }

// Run implements Protocol.
func (p PFC) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(p.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		return p.build(cfg, eng, track).arrive
	})
}

// build sets up PFC's switch: MTU packets over the RoCE stack, each ingress
// pausing its sender.
func (p PFC) build(cfg Config, eng *sim.Engine, track *tracker) *iqSwitch {
	s := newIQSwitch(cfg, eng, track, iqParams{
		stack: transport.RoCEStackLatency, hop: transport.L2ForwardingLatency, unit: mtu,
		reqWire: p.ReqWireBytes(),
		wire:    func(n int) int { return transport.WireBytes(transport.StackRoCE, n) },
	})
	s.flow = &pfcFlow{s: s, bytes: make([]int, cfg.Nodes), paused: make([]bool, cfg.Nodes)}
	return s
}

// pfcFlow is PFC's pause, by the bytes queued at each ingress.
type pfcFlow struct {
	s      *iqSwitch
	bytes  []int
	paused []bool
}

func (f *pfcFlow) mayTransmit(i int) bool { return !f.paused[i] }
func (f *pfcFlow) started(int)            {}

func (f *pfcFlow) joined(i int, p *iqPkt) {
	f.bytes[i] += p.wire
	if !f.paused[i] && f.bytes[i] > pfcXoffBytes {
		// The pause takes effect at the NIC pump now, one propagation
		// early; in-flight packets still land, as with real PFC headroom.
		f.paused[i] = true
	}
}

func (f *pfcFlow) left(i int, p *iqPkt) {
	f.bytes[i] -= p.wire
	if f.paused[i] && f.bytes[i] < pfcXonBytes {
		f.paused[i] = false
		f.s.nicPump(i)
	}
}
