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
// paper runs pFabric "on top of DCTCP"). With uniform single-packet
// messages its SRPT degenerates to FIFO, which is why the paper finds it
// tracks DCTCP on the 64 B microbenchmark.
type PFabric struct{}

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

// WireBytes implements Protocol.
func (PFabric) WireBytes(n int) int { return stackWire(transport.StackTCP, n) }

// ReqWireBytes implements Protocol.
func (PFabric) ReqWireBytes() int { return transport.WireBytes(transport.StackTCP, 8) }

type pfPkt struct {
	opIdx    int
	data     int
	isReq    bool
	size     int // total op size: the SRPT priority (lower = better)
	remain   int // remaining at send time
	acked    bool
	credited bool // delivered-and-counted once (guards RTO duplicates)
	conn     *pfConn
	wire     int
}

type pfConn struct {
	src, dst int
	inflight int
	q        []*pfPkt
}

// pfEgress is an explicit priority-queue egress port.
type pfEgress struct {
	q       []*pfPkt
	bytes   int64
	serving bool
}

type pfabricRun struct {
	cfg   Config
	eng   *sim.Engine
	up    []*pipe
	eg    []*pfEgress
	conns map[[2]int]*pfConn
	track *tracker
}

// Run implements Protocol.
func (p PFabric) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(p.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		r := &pfabricRun{cfg: cfg, eng: eng, conns: make(map[[2]int]*pfConn), track: track}
		r.up = make([]*pipe, cfg.Nodes)
		r.eg = make([]*pfEgress, cfg.Nodes)
		for i := range r.up {
			r.up[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
			r.eg[i] = &pfEgress{}
		}
		return r.arrive
	})
}

func (r *pfabricRun) conn(src, dst int) *pfConn {
	key := [2]int{src, dst}
	c := r.conns[key]
	if c == nil {
		c = &pfConn{src: src, dst: dst}
		r.conns[key] = c
	}
	return c
}

func (r *pfabricRun) arrive(op workload.Op) {
	r.eng.After(transport.TCPStackLatency, func() {
		if op.Read {
			c := r.conn(op.Src, op.Dst)
			pkt := &pfPkt{opIdx: op.Index, isReq: true, size: op.Size, remain: 8, conn: c}
			pkt.wire = transport.WireBytes(transport.StackTCP, 8)
			c.q = append(c.q, pkt)
			r.pump(c)
			return
		}
		r.enqueueData(op.Src, op.Dst, op.Index, op.Size)
	})
}

func (r *pfabricRun) enqueueData(src, dst, opIdx, size int) {
	c := r.conn(src, dst)
	remain := size
	for _, n := range packetize(size, mtu) {
		pkt := &pfPkt{opIdx: opIdx, data: n, size: size, remain: remain, conn: c}
		pkt.wire = transport.WireBytes(transport.StackTCP, n)
		remain -= n
		c.q = append(c.q, pkt)
	}
	r.pump(c)
}

func (r *pfabricRun) pump(c *pfConn) {
	for len(c.q) > 0 && c.inflight < pfabricWindow {
		pkt := c.q[0]
		c.q = c.q[1:]
		c.inflight++
		r.sendPkt(pkt)
	}
}

func (r *pfabricRun) sendPkt(pkt *pfPkt) {
	c := pkt.conn
	r.up[c.src].send(pkt.wire, func() {
		r.eng.After(transport.L2ForwardingLatency, func() { r.egEnqueue(r.eg[c.dst], c.dst, pkt) })
	})
	r.eng.After(pfabricRTO, func() {
		if pkt.acked {
			return
		}
		c.inflight--
		if c.inflight < 0 {
			c.inflight = 0
		}
		c.q = append([]*pfPkt{pkt}, c.q...)
		r.pump(c)
	})
}

// egEnqueue inserts by SRPT priority; on overflow the lowest-priority
// (largest remaining) packet is dropped.
func (r *pfabricRun) egEnqueue(eg *pfEgress, port int, pkt *pfPkt) {
	eg.q = append(eg.q, pkt)
	eg.bytes += int64(pkt.wire)
	sort.SliceStable(eg.q, func(i, j int) bool { return eg.q[i].remain < eg.q[j].remain })
	for eg.bytes > pfabricBufferBytes && len(eg.q) > 0 {
		victim := eg.q[len(eg.q)-1]
		eg.q = eg.q[:len(eg.q)-1]
		eg.bytes -= int64(victim.wire)
		// The victim recovers via its sender's RTO.
	}
	r.egServe(eg, port)
}

func (r *pfabricRun) egServe(eg *pfEgress, port int) {
	if eg.serving || len(eg.q) == 0 {
		return
	}
	eg.serving = true
	pkt := eg.q[0]
	eg.q = eg.q[1:]
	eg.bytes -= int64(pkt.wire)
	tx := sim.TransmissionTime(pkt.wire, r.cfg.Bandwidth)
	r.eng.After(tx, func() {
		eg.serving = false
		r.eng.After(edm.LinkLatency, func() { r.deliver(pkt) })
		r.egServe(eg, port)
	})
}

func (r *pfabricRun) deliver(pkt *pfPkt) {
	c := pkt.conn
	r.eng.After(2*edm.LinkLatency+transport.L2ForwardingLatency, func() {
		if pkt.acked {
			return
		}
		pkt.acked = true
		c.inflight--
		if c.inflight < 0 {
			c.inflight = 0
		}
		r.pump(c)
	})
	r.eng.After(transport.TCPStackLatency, func() {
		if pkt.credited {
			return // duplicate of a retransmitted packet
		}
		pkt.credited = true
		if pkt.isReq {
			r.enqueueData(c.dst, c.src, pkt.opIdx, pkt.size)
			return
		}
		r.track.delivered(pkt.opIdx, pkt.data)
	})
}
