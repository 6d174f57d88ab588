package netsim

import (
	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// iqSwitch is the input-queued switch under both lossless baselines, PFC
// and CXL. Each sender NIC serializes its queue into one ingress FIFO per
// sender; an egress, when free, takes the first ingress head that targets
// it, round-robin from its own pointer. A head waiting for a busy egress
// blocks every packet behind it, including traffic for idle egresses:
// the head-of-line blocking §4.3.1 charges both baselines with. The models
// differ only in their constants and in the flow control (iqFlow) that
// keeps the FIFOs bounded.
type iqSwitch struct {
	iqParams
	flow    iqFlow
	cfg     Config
	eng     *sim.Engine
	track   *tracker
	nicQ    [][]*iqPkt
	nicBusy []bool
	ingress [][]*iqPkt // indexed by sender
	egBusy  []bool
	rr      []int // per-egress round-robin ingress pointer
	// heads counts, per egress, the ingress heads that target it: an
	// egress with none has nothing to forward, without a scan.
	heads []int
}

// iqParams are a model's constants on the shared switch.
type iqParams struct {
	stack   sim.Time              // endpoint stack latency, each end
	hop     sim.Time              // switch hop latency, pipelined behind serialization
	unit    int                   // payload bytes per packet
	reqWire int                   // wire bytes of a read request
	wire    func(payload int) int // wire bytes of a data packet
}

// iqFlow is a model's flow control: each hook runs at one point of the
// switch's packet path, for sender (and ingress) i.
type iqFlow interface {
	// mayTransmit reports whether sender i's NIC may start a packet.
	mayTransmit(i int) bool
	// started runs when sender i's NIC starts a packet.
	started(i int)
	// joined runs when p joins ingress i.
	joined(i int, p *iqPkt)
	// left runs when p, the head of ingress i, leaves for its egress.
	left(i int, p *iqPkt)
}

// iqPkt is one packet (PFC) or flit (CXL) of op opIdx, of size bytes: a
// read request, or data payload bytes.
type iqPkt struct {
	opIdx, size, data, wire, src, dst int
	isReq                             bool
}

func newIQSwitch(cfg Config, eng *sim.Engine, track *tracker, p iqParams) *iqSwitch {
	n := cfg.Nodes
	return &iqSwitch{iqParams: p, cfg: cfg, eng: eng, track: track,
		nicQ: make([][]*iqPkt, n), nicBusy: make([]bool, n),
		ingress: make([][]*iqPkt, n), egBusy: make([]bool, n), rr: make([]int, n),
		heads: make([]int, n)}
}

func (s *iqSwitch) arrive(op workload.Op) {
	s.eng.After(s.stack, func() {
		if op.Read {
			// Read request c->m; the memory side streams data back.
			s.nicEnqueue(&iqPkt{opIdx: op.Index, isReq: true, size: op.Size, wire: s.reqWire, src: op.Src, dst: op.Dst})
			return
		}
		s.enqueueData(op.Src, op.Dst, op.Index, op.Size)
	})
}

func (s *iqSwitch) enqueueData(src, dst, opIdx, size int) {
	for _, n := range packetize(size, s.unit) {
		s.nicEnqueue(&iqPkt{opIdx: opIdx, data: n, size: size, wire: s.wire(n), src: src, dst: dst})
	}
}

func (s *iqSwitch) nicEnqueue(p *iqPkt) {
	s.nicQ[p.src] = append(s.nicQ[p.src], p)
	s.nicPump(p.src)
}

// nicPump serializes sender src's next packet, unless its NIC is busy or
// the flow control holds it (resumed by the flow control).
func (s *iqSwitch) nicPump(src int) {
	if s.nicBusy[src] || len(s.nicQ[src]) == 0 || !s.flow.mayTransmit(src) {
		return
	}
	s.nicBusy[src] = true
	s.flow.started(src)
	p := s.nicQ[src][0]
	s.nicQ[src] = s.nicQ[src][1:]
	tx := sim.TransmissionTime(p.wire, s.cfg.Bandwidth)
	s.eng.After(tx, func() {
		s.nicBusy[src] = false
		s.nicPump(src) // pipeline the next packet while this one propagates
	})
	s.eng.After(tx+edm.LinkLatency, func() {
		s.ingress[src] = append(s.ingress[src], p)
		if len(s.ingress[src]) == 1 {
			s.heads[p.dst]++
		}
		s.flow.joined(src, p)
		s.tryForward(p.dst)
	})
}

// tryForward starts egress d, if free, on the first ingress head that
// targets it, round-robin from the egress's pointer.
func (s *iqSwitch) tryForward(d int) {
	if s.egBusy[d] || s.heads[d] == 0 {
		return
	}
	n := s.cfg.Nodes
	for k := 0; k < n; k++ {
		i := (s.rr[d] + k) % n
		q := s.ingress[i]
		if len(q) == 0 || q[0].dst != d {
			continue
		}
		s.rr[d] = (i + 1) % n
		p := q[0]
		s.ingress[i] = q[1:]
		s.heads[d]--
		if len(q) > 1 {
			s.heads[q[1].dst]++
		}
		s.flow.left(i, p)
		s.egBusy[d] = true
		// The egress is occupied for the serialization time only; the
		// hop latency is pipelined.
		s.eng.After(sim.TransmissionTime(p.wire, s.cfg.Bandwidth), func() {
			s.egBusy[d] = false
			s.eng.After(s.hop+edm.LinkLatency, func() { s.deliver(p) })
			// Freeing this egress may unblock several ingress heads.
			for e := 0; e < n; e++ {
				s.tryForward(e)
			}
		})
		return
	}
}

func (s *iqSwitch) deliver(p *iqPkt) {
	s.eng.After(s.stack, func() {
		if p.isReq {
			s.enqueueData(p.dst, p.src, p.opIdx, p.size)
			return
		}
		s.track.delivered(p.opIdx, p.data)
	})
}
