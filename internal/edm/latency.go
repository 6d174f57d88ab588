package edm

import "repro/internal/sim"

// Pipeline latencies of EDM's host and switch stacks, in PCS clock cycles,
// exactly as measured on the paper's FPGA prototype (§3.2.1, §3.2.2,
// Figure 5). One cycle is 2.56 ns at 25 GbE.
const (
	// Host TX.
	GenRequestCycles = 2 // RREQ/RMWREQ: read message queue + create block/write state table
	GenNotifyCycles  = 2 // /N/: read message queue + create block/write state table
	GrantReadCycles  = 4 // dequeue grant (crosses RX->TX clock domains)
	GenDataCycles    = 3 // chunk: read state table + read data buffer + create block

	// Host RX.
	RxGrantCycles    = 2 // /G/: parse + add to grant queue
	RxReqToMemCycles = 1 // received RREQ: extra cycle to the memory controller
	RxDataCycles     = 3 // received /M*/ data: parse + extract address + deliver

	// Switch.
	SwGenGrantCycles = 1 // generate a /G/ block
	SwClassifyCycles = 1 // identify /N/, /G/, /M*/ by block type
	SwForwardCycles  = 4 // data movement RX clock domain -> TX clock domain
)

// Physical-layer timing of the 25 GbE testbed (Table 1). The flow-level
// models in internal/netsim share the link delays.
const (
	// BlockPeriod is the PCS clock: one 66-bit block per cycle.
	BlockPeriod = 2560 * sim.Picosecond
	// LinkBandwidth is the testbed's line rate (§4.1); the scheduler paces
	// busy-release at it.
	LinkBandwidth sim.Gbps = 25
	// PMAPMDDelay is the PMA+PMD+transceiver latency per crossing; each
	// link traversal crosses twice (TX serializer, RX deserializer).
	PMAPMDDelay = 19 * sim.Nanosecond
	// DefaultPropDelay is the one-hop propagation delay used in Table 1.
	DefaultPropDelay = 10 * sim.Nanosecond
	// LinkLatency is the fixed one-way latency of a link traversal after
	// serialization: TX PMA + propagation + RX PMA.
	LinkLatency = PMAPMDDelay + DefaultPropDelay + PMAPMDDelay
	// ReadTimeout bounds an outstanding read; expiry is a NULL response (§3.3).
	ReadTimeout = 100 * sim.Microsecond
)

// ChunkBytes is the grant unit c of the 25 GbE testbed's scheduler (§4.1).
// The rest of its setup is the paper's: SRPT, and X =
// sched.DefaultMaxActivePerPair as each host's window (Host.submit).
const ChunkBytes = 64
