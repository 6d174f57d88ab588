package netsim

import (
	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// DCTCP models the representative sender-driven reactive protocol: the
// windowed sender (tcpNet) under DCTCP's ECN-fraction window control, over
// an output-queued switch with finite buffers; drops recover by timeout.
type DCTCP struct{ tcpStack }

// DCTCP's parameters.
const (
	// dctcpMarkThreshold is the ECN marking threshold K, in bytes.
	dctcpMarkThreshold = 30 << 10
	// dctcpBufferBytes is the per-egress buffer.
	dctcpBufferBytes = 256 << 10
	// dctcpRTO is the retransmission timeout; datacenter TCP stacks use
	// hundreds of microseconds to milliseconds.
	dctcpRTO = 200 * sim.Microsecond
	// dctcpInitCwnd is the initial window, in packets.
	dctcpInitCwnd = 10
	// dctcpGain is DCTCP's g.
	dctcpGain = 1.0 / 16
)

// Name implements Protocol.
func (DCTCP) Name() string { return "DCTCP" }

// Run implements Protocol.
func (d DCTCP) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(d.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		return d.build(cfg, eng, track).arrive
	})
}

// build sets up DCTCP's sender over output-queued egresses.
func (DCTCP) build(cfg Config, eng *sim.Engine, track *tracker) *tcpNet {
	n := newTCPNet(cfg, eng, track, tcpParams{rto: dctcpRTO, cwnd: dctcpInitCwnd})
	s := &dctcpSwitch{n: n, eg: make([]*pipe, cfg.Nodes)}
	for i := range s.eg {
		s.eg[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
	}
	n.model = s
	return n
}

// dctcpSwitch is DCTCP's output-queued switch and window rule.
type dctcpSwitch struct {
	n  *tcpNet
	eg []*pipe // switch egress ports
}

// atSwitch, after L2 parsing, drops pkt if its egress buffer is full, else
// enqueues it, ECN-marked above K.
func (s *dctcpSwitch) atSwitch(pkt *tcpPkt) {
	eg := s.eg[pkt.conn.dst]
	if eg.queuedBytes()+int64(pkt.wire) > dctcpBufferBytes {
		return // recovery via the sender's RTO
	}
	if eg.queuedBytes() > dctcpMarkThreshold {
		pkt.marked = true
	}
	s.n.eng.After(transport.L2ForwardingLatency, func() {
		eg.send(pkt.wire, func() { s.n.deliver(pkt) })
	})
}

// acked runs DCTCP's window update: α and the cut once per window, additive
// increase otherwise.
func (s *dctcpSwitch) acked(c *tcpConn, pkt *tcpPkt) {
	c.ackSeen++
	if pkt.marked {
		c.ackMark++
	}
	c.windowSz++
	if float64(c.windowSz) >= c.cwnd {
		frac := float64(c.ackMark) / float64(c.ackSeen)
		c.alpha = (1-dctcpGain)*c.alpha + dctcpGain*frac
		if c.ackMark > 0 {
			c.cwnd = max(c.cwnd*(1-c.alpha/2), 1)
		} else {
			c.cwnd++
		}
		c.ackSeen, c.ackMark, c.windowSz = 0, 0, 0
	} else if !pkt.marked {
		c.cwnd += 1 / c.cwnd
	}
}

// timedOut collapses the window: a timeout implies severe congestion.
func (s *dctcpSwitch) timedOut(c *tcpConn) { c.cwnd = 1 }
