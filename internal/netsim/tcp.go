package netsim

import (
	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// tcpNet is the windowed sender under both sender-driven baselines, pFabric
// and DCTCP: per-pair connections over the DCTCP-class stack, each sending
// MTU packets up its line-rate link while its window allows, recovering a
// lost packet by timeout only (single-packet messages cannot trigger
// 3-dupACK fast retransmit, §2.4 limitation 6). The models differ only in
// their constants, their switch egress and their window rule (tcpModel).
type tcpNet struct {
	tcpParams
	model tcpModel
	cfg   Config
	eng   *sim.Engine
	up    []*pipe // sender links
	conns map[[2]int]*tcpConn
	track *tracker
}

// tcpParams are a model's constants on the shared sender.
type tcpParams struct {
	rto  sim.Time // retransmission timeout
	cwnd float64  // initial window, in packets
}

// tcpModel is what a model adds to the shared sender: each hook runs at one
// point of a packet's path.
type tcpModel interface {
	// atSwitch runs when p reaches the switch: the model queues it at its
	// egress toward p's receiver, or drops it, and calls tcpNet.deliver
	// when it reaches the receiver.
	atSwitch(p *tcpPkt)
	// acked runs when p's first ACK reaches c's sender, before the window
	// refills.
	acked(c *tcpConn, p *tcpPkt)
	// timedOut runs when c's oldest unacked packet times out, before the
	// packet is queued again.
	timedOut(c *tcpConn)
}

// tcpPkt is one packet of op opIdx: a read request, or data payload bytes.
type tcpPkt struct {
	opIdx    int
	data     int  // payload bytes credited to the op on delivery
	isReq    bool // read request: triggers the response at the receiver
	size     int  // the op's size: what a read request asks for
	remain   int  // op bytes not yet sent, this packet's included
	wire     int
	acked    bool
	marked   bool // ECN-marked at the switch
	credited bool // delivered-and-counted once (guards RTO duplicates)
	conn     *tcpConn
}

// tcpConn is one sender-receiver pair's connection. alpha and the ack
// counters are DCTCP's window state.
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

// tcpStack is the wire format both models share.
type tcpStack struct{}

// WireBytes implements Protocol.
func (tcpStack) WireBytes(n int) int { return stackWire(transport.StackTCP, n) }

// ReqWireBytes implements Protocol.
func (tcpStack) ReqWireBytes() int { return transport.WireBytes(transport.StackTCP, 8) }

func newTCPNet(cfg Config, eng *sim.Engine, track *tracker, p tcpParams) *tcpNet {
	n := &tcpNet{tcpParams: p, cfg: cfg, eng: eng, up: make([]*pipe, cfg.Nodes),
		conns: make(map[[2]int]*tcpConn), track: track}
	for i := range n.up {
		n.up[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
	}
	return n
}

func (n *tcpNet) conn(src, dst int) *tcpConn {
	key := [2]int{src, dst}
	c := n.conns[key]
	if c == nil {
		c = &tcpConn{src: src, dst: dst, cwnd: n.cwnd}
		n.conns[key] = c
	}
	return c
}

// arrive queues the op's packets after the sender-side stack latency.
func (n *tcpNet) arrive(op workload.Op) {
	n.eng.After(transport.TCPStackLatency, func() {
		if op.Read {
			// 8 B read request travels c->m first.
			c := n.conn(op.Src, op.Dst)
			c.q = append(c.q, &tcpPkt{opIdx: op.Index, isReq: true, size: op.Size, remain: 8,
				wire: transport.WireBytes(transport.StackTCP, 8), conn: c})
			n.pump(c)
			return
		}
		n.enqueueData(op.Src, op.Dst, op.Index, op.Size)
	})
}

func (n *tcpNet) enqueueData(src, dst, opIdx, size int) {
	c := n.conn(src, dst)
	remain := size
	for _, k := range packetize(size, mtu) {
		c.q = append(c.q, &tcpPkt{opIdx: opIdx, data: k, size: size, remain: remain,
			wire: transport.WireBytes(transport.StackTCP, k), conn: c})
		remain -= k
	}
	n.pump(c)
}

// pump sends while the window allows.
func (n *tcpNet) pump(c *tcpConn) {
	for len(c.q) > 0 && float64(c.inflight) < c.cwnd {
		pkt := c.q[0]
		c.q = c.q[1:]
		c.inflight++
		n.sendPkt(pkt)
	}
}

// sendPkt serializes pkt up its sender's link to the switch and arms its
// retransmission timeout.
func (n *tcpNet) sendPkt(pkt *tcpPkt) {
	c := pkt.conn
	n.up[c.src].send(pkt.wire, func() { n.model.atSwitch(pkt) })
	n.eng.After(n.rto, func() {
		if pkt.acked {
			return
		}
		c.inflight = max(c.inflight-1, 0)
		n.model.timedOut(c)
		c.q = append([]*tcpPkt{pkt}, c.q...)
		n.pump(c)
	})
}

// deliver handles arrival at the receiver: ACK back to the sender, then the
// receiver-side stack; read requests trigger the data in the reverse
// direction.
func (n *tcpNet) deliver(pkt *tcpPkt) {
	c := pkt.conn
	// ACK returns after one propagation (ACKs ride the reverse path; their
	// 64 B frames are negligible next to data and not serialized here).
	n.eng.After(2*edm.LinkLatency+transport.L2ForwardingLatency, func() {
		if pkt.acked {
			return
		}
		pkt.acked = true
		c.inflight = max(c.inflight-1, 0)
		n.model.acked(c, pkt)
		n.pump(c)
	})
	n.eng.After(transport.TCPStackLatency, func() {
		if pkt.credited {
			return // duplicate of a retransmitted packet
		}
		pkt.credited = true
		if pkt.isReq {
			// Memory node issues the response data m->c.
			n.enqueueData(c.dst, c.src, pkt.opIdx, pkt.size)
			return
		}
		n.track.delivered(pkt.opIdx, pkt.data)
	})
}
