// Package transport provides the baseline network stacks EDM is compared
// against: per-component latency models of TCP/IP-in-hardware, RoCEv2 and
// raw Ethernet for the unloaded-testbed comparison (Table 1), and shared
// wire-overhead accounting used by the large-scale simulator's protocol
// models (internal/netsim).
package transport

import (
	"repro/internal/edm"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Component latencies measured on the paper's testbed (Table 1 and its
// caption). All four stacks run on the same 25 GbE PHY, whose PMA/PMD and
// propagation delays are edm.PMAPMDDelay and edm.DefaultPropDelay.
const (
	// Per-traversal protocol stack data-path latency.
	TCPStackLatency  = 666200 * sim.Picosecond // hardware TCP/IP
	RoCEStackLatency = 230200 * sim.Picosecond // RoCEv2

	// Ethernet MAC latency per traversal.
	MACLatency = 7680 * sim.Picosecond // 3 cycles

	// Standard PCS latency per traversal.
	PCSLatency = 7680 * sim.Picosecond

	// Layer-2 forwarding pipeline of the baseline switch:
	// parser 87 ns + match-action 202 ns + packet manager 93 ns +
	// crossbar 18 ns = 400 ns.
	L2ParserLatency      = 87 * sim.Nanosecond
	L2MatchActionLatency = 202 * sim.Nanosecond
	L2PacketMgrLatency   = 93 * sim.Nanosecond
	L2CrossbarLatency    = 18 * sim.Nanosecond
	L2ForwardingLatency  = L2ParserLatency + L2MatchActionLatency + L2PacketMgrLatency + L2CrossbarLatency
)

// Stack identifies one of the compared network stacks.
type Stack int

const (
	StackTCP Stack = iota
	StackRoCE
	StackRawEthernet
	StackEDM
)

// String names the stack as in Table 1.
func (s Stack) String() string {
	switch s {
	case StackTCP:
		return "TCP/IP in hardware"
	case StackRoCE:
		return "RDMA (RoCEv2)"
	case StackRawEthernet:
		return "Raw Ethernet"
	case StackEDM:
		return "EDM"
	}
	return "?"
}

// Breakdown is one Table 1 column: the per-location latency contributions
// for a remote read or write.
type Breakdown struct {
	Stack Stack
	Write bool

	ComputeStack sim.Time
	ComputeMAC   sim.Time
	ComputePCS   sim.Time
	SwitchL2     sim.Time
	SwitchMAC    sim.Time
	SwitchPCS    sim.Time
	MemoryStack  sim.Time
	MemoryMAC    sim.Time
	MemoryPCS    sim.Time

	PMAPMD      sim.Time
	Propagation sim.Time
}

// StackTotal is the network-stack latency (everything above PMA/PMD).
func (b Breakdown) StackTotal() sim.Time {
	return b.ComputeStack + b.ComputeMAC + b.ComputePCS +
		b.SwitchL2 + b.SwitchMAC + b.SwitchPCS +
		b.MemoryStack + b.MemoryMAC + b.MemoryPCS
}

// Total is the full fabric latency.
func (b Breakdown) Total() sim.Time { return b.StackTotal() + b.PMAPMD + b.Propagation }

// edmPCS* are EDM's PCS-path latencies from Table 1's blue cells: 2 cycles
// per PCS crossing plus the location's pipeline cycles, one edm.BlockPeriod
// each.
const (
	// Read: compute node 2x2 + 5 cycles; switch 4x2 + 11; memory node
	// 2x2 + 10.
	edmReadComputePCS = (2*2 + 5) * edm.BlockPeriod
	edmReadSwitchPCS  = (4*2 + 11) * edm.BlockPeriod
	edmReadMemoryPCS  = (2*2 + 10) * edm.BlockPeriod

	// Write: compute node 3x2 + 11 cycles; switch 4x2 + 11; memory node
	// 1x2 + 3.
	edmWriteComputePCS = (3*2 + 11) * edm.BlockPeriod
	edmWriteSwitchPCS  = (4*2 + 11) * edm.BlockPeriod
	edmWriteMemoryPCS  = (1*2 + 3) * edm.BlockPeriod
)

// Table1 computes the Table 1 breakdown for the given stack and operation.
// A read crosses the fabric twice (request + response): every baseline
// component is paid twice on the read path and once on the write path,
// except the switch, which both directions traverse. EDM pays no protocol
// stack, no MAC and no layer-2 forwarding; its PCS cycle counts come from
// Figure 5.
func Table1(s Stack, write bool) Breakdown {
	b := Breakdown{Stack: s, Write: write}
	passes := sim.Time(2) // read: request + response
	if write {
		passes = 1
	}
	switch s {
	case StackTCP, StackRoCE, StackRawEthernet:
		stack := sim.Time(0)
		switch s {
		case StackTCP:
			stack = TCPStackLatency
		case StackRoCE:
			stack = RoCEStackLatency
		}
		b.ComputeStack = passes * stack
		b.ComputeMAC = passes * MACLatency
		b.ComputePCS = passes * PCSLatency
		b.SwitchL2 = passes * L2ForwardingLatency
		b.SwitchMAC = 2 * passes * MACLatency // ingress + egress MAC
		b.SwitchPCS = 2 * passes * PCSLatency
		b.MemoryStack = passes * stack
		b.MemoryMAC = passes * MACLatency
		b.MemoryPCS = passes * PCSLatency
	case StackEDM:
		if write {
			b.ComputePCS = edmWriteComputePCS
			b.SwitchPCS = edmWriteSwitchPCS
			b.MemoryPCS = edmWriteMemoryPCS
		} else {
			b.ComputePCS = edmReadComputePCS
			b.SwitchPCS = edmReadSwitchPCS
			b.MemoryPCS = edmReadMemoryPCS
		}
	}
	// Physical layer: each link traversal crosses PMA/PMD twice. A read
	// traverses 4 links, a write 2 — but EDM's write also pays the
	// notification+grant round trip on the compute-side link (Table 1
	// shows 8x19 ns and 4x10 ns for both EDM columns).
	linkTraversals := sim.Time(4)
	if write && s != StackEDM {
		linkTraversals = 2
	}
	b.PMAPMD = 2 * linkTraversals * edm.PMAPMDDelay
	b.Propagation = linkTraversals * edm.DefaultPropDelay
	return b
}

// WireBytes reports the on-wire bytes each stack needs to move n payload
// bytes in one message — the bandwidth-efficiency model behind Figure 6.
// TCP/IP and RoCEv2 add their headers inside the Ethernet frame; EDM uses
// 66-bit PHY blocks with no frame, no preamble and no IFG.
func WireBytes(s Stack, n int) int {
	switch s {
	case StackTCP:
		// Ethernet + IPv4 (20) + TCP (20).
		return mac.WireBytes(n + 40)
	case StackRoCE:
		// Ethernet + IPv4 (20) + UDP (8) + IB BTH (12) + RETH (16) + ICRC (4).
		return mac.WireBytes(n + 60)
	case StackRawEthernet:
		return mac.WireBytes(n)
	case StackEDM:
		// One memory message on an otherwise idle-filled line whose idles
		// EDM repurposes.
		return (phy.MemMsgWireBlocks(n)*phy.BlockBits + 7) / 8
	}
	return n
}

// Goodput reports the fraction of link bandwidth delivering payload for
// back-to-back n-byte messages on stack s.
func Goodput(s Stack, n int) float64 {
	return float64(n) / float64(WireBytes(s, n))
}
