package netsim

import (
	"sort"

	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// PFabric models pFabric: senders transmit at line rate, switches keep
// very small per-port buffers ordered by remaining flow size (SRPT) and
// drop the lowest-priority packet on overflow; dropped packets are
// recovered by a short timeout. It runs over the DCTCP-class stack (the
// paper runs pFabric "on top of DCTCP"), on the windowed sender (tcpNet)
// with a fixed window. With uniform single-packet messages its SRPT
// degenerates to FIFO, which is why the paper finds it tracks DCTCP on the
// 64 B microbenchmark.
type PFabric struct{ tcpStack }

// pFabric's parameters.
const (
	// pfabricBufferBytes is the per-egress buffer: pFabric's
	// shallow-buffer regime.
	pfabricBufferBytes = 24 << 10
	// pfabricRTO is the retransmission timeout, the pFabric paper's
	// setting; smaller values cause spurious retransmissions for
	// multi-packet messages whose ACKs are delayed by their own queueing.
	pfabricRTO = 45 * sim.Microsecond
	// pfabricWindow bounds a sender pair's packets in flight:
	// approximately one BDP of line-rate probing.
	pfabricWindow = 12
)

// Name implements Protocol.
func (PFabric) Name() string { return "pFabric" }

// Run implements Protocol.
func (p PFabric) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(p.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		return p.build(cfg, eng, track).arrive
	})
}

// build sets up pFabric's sender: a window that never changes, over SRPT
// egresses.
func (PFabric) build(cfg Config, eng *sim.Engine, track *tracker) *tcpNet {
	n := newTCPNet(cfg, eng, track, tcpParams{rto: pfabricRTO, cwnd: pfabricWindow})
	s := &pfabricSwitch{n: n, eg: make([]*pfEgress, cfg.Nodes)}
	for i := range s.eg {
		s.eg[i] = &pfEgress{}
	}
	n.model = s
	return n
}

// pfEgress is an explicit priority-queue egress port.
type pfEgress struct {
	q       []*tcpPkt
	bytes   int64
	serving bool
}

// pfabricSwitch is pFabric's switch: one SRPT egress per receiver.
type pfabricSwitch struct {
	n  *tcpNet
	eg []*pfEgress
}

func (*pfabricSwitch) acked(*tcpConn, *tcpPkt) {}
func (*pfabricSwitch) timedOut(*tcpConn)       {}

// atSwitch inserts pkt by SRPT priority after L2 parsing; on overflow the
// lowest-priority (largest remaining) packet is dropped.
func (s *pfabricSwitch) atSwitch(pkt *tcpPkt) {
	s.n.eng.After(transport.L2ForwardingLatency, func() {
		eg := s.eg[pkt.conn.dst]
		eg.q = append(eg.q, pkt)
		eg.bytes += int64(pkt.wire)
		sort.SliceStable(eg.q, func(i, j int) bool { return eg.q[i].remain < eg.q[j].remain })
		for eg.bytes > pfabricBufferBytes && len(eg.q) > 0 {
			victim := eg.q[len(eg.q)-1]
			eg.q = eg.q[:len(eg.q)-1]
			eg.bytes -= int64(victim.wire)
			// The victim recovers via its sender's RTO.
		}
		s.serve(eg)
	})
}

func (s *pfabricSwitch) serve(eg *pfEgress) {
	if eg.serving || len(eg.q) == 0 {
		return
	}
	eg.serving = true
	pkt := eg.q[0]
	eg.q = eg.q[1:]
	eg.bytes -= int64(pkt.wire)
	tx := sim.TransmissionTime(pkt.wire, s.n.cfg.Bandwidth)
	s.n.eng.After(tx, func() {
		eg.serving = false
		s.n.eng.After(edm.LinkLatency, func() { s.n.deliver(pkt) })
		s.serve(eg)
	})
}
