package netsim

import (
	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// PFC models lossless Ethernet (priority flow control) under an RDMA-class
// stack: an input-queued switch whose per-ingress FIFOs pause the upstream
// sender above Xoff and resume below Xon. Losslessness costs head-of-line
// blocking: the ingress FIFO head waiting for a busy egress blocks every
// packet behind it, including traffic for idle egresses — the failure mode
// §2.4 limitation 6 describes. (DCQCN's rate control is subsumed by the
// pause behaviour at this timescale.)
type PFC struct{}

// PFC's pause thresholds: the ingress queue pauses its sender above
// pfcXoffBytes and resumes it below pfcXonBytes.
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

type pfcPkt struct {
	opIdx int
	data  int
	isReq bool
	size  int
	wire  int
	src   int
	dst   int
}

// pfcIngress is one ingress port: an unbounded FIFO whose occupancy drives
// pause frames.
type pfcIngress struct {
	q      []*pfcPkt
	bytes  int64
	paused bool
}

type pfcRun struct {
	cfg     Config
	eng     *sim.Engine
	up      []*pipe // sender NIC serializers
	nicQ    [][]*pfcPkt
	nicBusy []bool
	ingress []*pfcIngress
	egBusy  []bool
	rr      []int // per-egress round-robin ingress pointer
	track   *tracker
}

// Run implements Protocol.
func (p PFC) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(p.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		r := &pfcRun{cfg: cfg, eng: eng, track: track}
		r.up = make([]*pipe, cfg.Nodes)
		r.nicQ = make([][]*pfcPkt, cfg.Nodes)
		r.nicBusy = make([]bool, cfg.Nodes)
		r.ingress = make([]*pfcIngress, cfg.Nodes)
		r.egBusy = make([]bool, cfg.Nodes)
		r.rr = make([]int, cfg.Nodes)
		for i := range r.up {
			r.up[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
			r.ingress[i] = &pfcIngress{}
		}
		return r.arrive
	})
}

func (r *pfcRun) arrive(op workload.Op) {
	r.eng.After(transport.RoCEStackLatency, func() {
		if op.Read {
			pkt := &pfcPkt{opIdx: op.Index, isReq: true, size: op.Size, src: op.Src, dst: op.Dst}
			pkt.wire = transport.WireBytes(transport.StackRoCE, 8)
			r.nicEnqueue(pkt)
			return
		}
		r.enqueueData(op.Src, op.Dst, op.Index, op.Size)
	})
}

func (r *pfcRun) enqueueData(src, dst, opIdx, size int) {
	for _, n := range packetize(size, mtu) {
		pkt := &pfcPkt{opIdx: opIdx, data: n, size: size, src: src, dst: dst}
		pkt.wire = transport.WireBytes(transport.StackRoCE, n)
		r.nicEnqueue(pkt)
	}
}

// nicEnqueue queues at the sender NIC; the NIC serializes unless paused.
func (r *pfcRun) nicEnqueue(pkt *pfcPkt) {
	r.nicQ[pkt.src] = append(r.nicQ[pkt.src], pkt)
	r.nicPump(pkt.src)
}

func (r *pfcRun) nicPump(src int) {
	if r.nicBusy[src] || len(r.nicQ[src]) == 0 || r.ingress[src].paused {
		return
	}
	r.nicBusy[src] = true
	pkt := r.nicQ[src][0]
	r.nicQ[src] = r.nicQ[src][1:]
	tx := sim.TransmissionTime(pkt.wire, r.cfg.Bandwidth)
	r.eng.After(tx, func() {
		r.nicBusy[src] = false
		r.nicPump(src) // pipeline next packet while this one propagates
	})
	r.eng.After(tx+edm.LinkLatency, func() { r.ingressArrive(pkt) })
}

// ingressArrive appends to the ingress FIFO and manages pause state.
func (r *pfcRun) ingressArrive(pkt *pfcPkt) {
	ing := r.ingress[pkt.src]
	ing.q = append(ing.q, pkt)
	ing.bytes += int64(pkt.wire)
	if !ing.paused && ing.bytes > pfcXoffBytes {
		// Pause frame reaches the sender after one propagation; modelled
		// as taking effect now at the NIC pump (conservatively early) —
		// in-flight packets still land, as with real PFC headroom.
		ing.paused = true
	}
	r.tryForward(pkt.dst)
}

// tryForward starts egress d, if free, on the first ingress HEAD that
// targets it, round-robin from the egress's pointer.
func (r *pfcRun) tryForward(d int) {
	if r.egBusy[d] {
		return
	}
	n := r.cfg.Nodes
	for k := 0; k < n; k++ {
		i := (r.rr[d] + k) % n
		ing := r.ingress[i]
		if len(ing.q) == 0 || ing.q[0].dst != d {
			continue
		}
		r.rr[d] = (i + 1) % n
		pkt := ing.q[0]
		ing.q = ing.q[1:]
		ing.bytes -= int64(pkt.wire)
		if ing.paused && ing.bytes < pfcXonBytes {
			ing.paused = false
			r.nicPump(i)
		}
		r.egBusy[d] = true
		tx := sim.TransmissionTime(pkt.wire, r.cfg.Bandwidth)
		// The egress is occupied for the serialization time only; the
		// L2 pipeline latency is pipelined, not occupancy.
		r.eng.After(tx, func() {
			r.egBusy[d] = false
			r.eng.After(transport.L2ForwardingLatency+edm.LinkLatency, func() { r.deliver(pkt) })
			// Freeing this egress may unblock several ingress heads.
			r.tryForwardAll()
		})
		return
	}
}

// tryForwardAll rescans every egress (after an egress frees, any ingress
// head may now be forwardable).
func (r *pfcRun) tryForwardAll() {
	for d := 0; d < r.cfg.Nodes; d++ {
		r.tryForward(d)
	}
}

func (r *pfcRun) deliver(pkt *pfcPkt) {
	r.eng.After(transport.RoCEStackLatency, func() {
		if pkt.isReq {
			r.enqueueData(pkt.dst, pkt.src, pkt.opIdx, pkt.size)
			return
		}
		r.track.delivered(pkt.opIdx, pkt.data)
	})
}
