package netsim

import (
	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// DCTCP models the representative sender-driven reactive protocol: per-pair
// connections with DCTCP's ECN-fraction window control over an
// output-queued switch with finite buffers; drops recover by timeout
// (single-packet messages cannot trigger 3-dupACK fast retransmit, §2.4
// limitation 6).
type DCTCP struct{}

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

// WireBytes implements Protocol.
func (DCTCP) WireBytes(n int) int { return stackWire(transport.StackTCP, n) }

// ReqWireBytes implements Protocol.
func (DCTCP) ReqWireBytes() int { return transport.WireBytes(transport.StackTCP, 8) }

type tcpPkt struct {
	opIdx    int
	data     int  // payload bytes credited to the op on delivery
	isReq    bool // read request: triggers the response at the receiver
	size     int  // remaining op bytes at send time (for bookkeeping only)
	acked    bool
	dropped  bool
	marked   bool
	credited bool // delivered-and-counted once (guards RTO duplicates)
	conn     *tcpConn
}

type tcpConn struct {
	src, dst int
	cwnd     float64
	inflight int
	q        []*tcpPkt
	alpha    float64
	ackSeen  int
	ackMark  int
	windowSz int
}

type dctcpRun struct {
	cfg    Config
	eng    *sim.Engine
	up     []*pipe
	egress []*pipe // switch egress ports (output-queued)
	conns  map[[2]int]*tcpConn
	track  *tracker
}

// Run implements Protocol.
func (d DCTCP) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(d.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		r := &dctcpRun{cfg: cfg, eng: eng, conns: make(map[[2]int]*tcpConn), track: track}
		r.up = make([]*pipe, cfg.Nodes)
		r.egress = make([]*pipe, cfg.Nodes)
		for i := range r.up {
			r.up[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
			r.egress[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
		}
		return r.arrive
	})
}

func (r *dctcpRun) conn(src, dst int) *tcpConn {
	key := [2]int{src, dst}
	c := r.conns[key]
	if c == nil {
		c = &tcpConn{src: src, dst: dst, cwnd: dctcpInitCwnd}
		r.conns[key] = c
	}
	return c
}

// arrive queues the op's packets after the sender-side stack latency.
func (r *dctcpRun) arrive(op workload.Op) {
	r.eng.After(transport.TCPStackLatency, func() {
		if op.Read {
			// 8 B read request travels c->m first.
			c := r.conn(op.Src, op.Dst)
			c.q = append(c.q, &tcpPkt{opIdx: op.Index, data: 0, isReq: true, size: op.Size, conn: c})
			r.pump(c)
			return
		}
		r.enqueueData(op.Src, op.Dst, op.Index, op.Size)
	})
}

func (r *dctcpRun) enqueueData(src, dst, opIdx, size int) {
	c := r.conn(src, dst)
	for _, n := range packetize(size, mtu) {
		c.q = append(c.q, &tcpPkt{opIdx: opIdx, data: n, size: size, conn: c})
	}
	r.pump(c)
}

// pump sends while the window allows.
func (r *dctcpRun) pump(c *tcpConn) {
	for len(c.q) > 0 && float64(c.inflight) < c.cwnd {
		pkt := c.q[0]
		c.q = c.q[1:]
		c.inflight++
		r.sendPkt(pkt)
	}
}

func (r *dctcpRun) wireBytes(pkt *tcpPkt) int {
	n := pkt.data
	if pkt.isReq {
		n = 8
	}
	return transport.WireBytes(transport.StackTCP, n)
}

func (r *dctcpRun) sendPkt(pkt *tcpPkt) {
	wire := r.wireBytes(pkt)
	c := pkt.conn
	r.up[c.src].send(wire, func() {
		// At the switch after L2 parsing: drop if the egress buffer is
		// full, else enqueue (ECN mark above K).
		eg := r.egress[c.dst]
		if eg.queuedBytes()+int64(wire) > dctcpBufferBytes {
			pkt.dropped = true
			return // recovery via RTO below
		}
		if eg.queuedBytes() > dctcpMarkThreshold {
			pkt.marked = true
		}
		r.eng.After(transport.L2ForwardingLatency, func() {
			eg.send(wire, func() { r.deliver(pkt) })
		})
	})
	// Arm the retransmission timeout.
	r.eng.After(dctcpRTO, func() {
		if pkt.acked {
			return
		}
		pkt.dropped = false
		c.inflight--
		if c.inflight < 0 {
			c.inflight = 0
		}
		// Timeout implies severe congestion: collapse the window.
		c.cwnd = 1
		c.q = append([]*tcpPkt{pkt}, c.q...)
		r.pump(c)
	})
}

// deliver handles arrival at the receiver: ACK back to the sender, then the
// receiver-side stack; read requests trigger the data in the reverse
// direction.
func (r *dctcpRun) deliver(pkt *tcpPkt) {
	c := pkt.conn
	// ACK returns after one propagation (ACKs ride the reverse path; their
	// 64 B frames are negligible next to data and not serialized here).
	r.eng.After(2*edm.LinkLatency+transport.L2ForwardingLatency, func() { r.ack(pkt) })
	r.eng.After(transport.TCPStackLatency, func() {
		if pkt.credited {
			return // duplicate of a retransmitted packet
		}
		pkt.credited = true
		if pkt.isReq {
			// Memory node issues the response data m->c.
			r.enqueueData(c.dst, c.src, pkt.opIdx, pkt.size)
			return
		}
		r.track.delivered(pkt.opIdx, pkt.data)
	})
}

// ack runs DCTCP's window update at the sender.
func (r *dctcpRun) ack(pkt *tcpPkt) {
	if pkt.acked {
		return
	}
	pkt.acked = true
	c := pkt.conn
	c.inflight--
	if c.inflight < 0 {
		c.inflight = 0
	}
	c.ackSeen++
	if pkt.marked {
		c.ackMark++
	}
	c.windowSz++
	if float64(c.windowSz) >= c.cwnd {
		frac := float64(c.ackMark) / float64(c.ackSeen)
		c.alpha = (1-dctcpGain)*c.alpha + dctcpGain*frac
		if c.ackMark > 0 {
			c.cwnd *= 1 - c.alpha/2
			if c.cwnd < 1 {
				c.cwnd = 1
			}
		} else {
			c.cwnd++
		}
		c.ackSeen, c.ackMark, c.windowSz = 0, 0, 0
	} else if pkt.marked {
		// keep counting; decrease applied at window boundary
	} else {
		c.cwnd += 1 / c.cwnd
	}
	r.pump(c)
}
