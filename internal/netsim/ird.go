package netsim

import (
	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// IRD is the paper's idealized receiver-driven protocol: receivers learn of
// new messages in zero time, schedule SRPT, and credit one sender at a
// time. We idealize generously — a receiver only grants to a sender that is
// currently idle (instant global knowledge) — yet the decentralized
// conflicts remain: two receivers may credit the same idle sender in the
// same instant and one granted downlink idles; and when every pending
// message's sender is busy serving someone else, the receiver's downlink
// sits unused even though other traffic could have filled it. EDM's central
// scheduler exists to eliminate exactly this under-utilization.
type IRD struct{}

// irdWindow is the receiver's grant overcommitment: how many
// granted-but-unfinished messages it keeps in flight to cover the grant RTT,
// as receiver-driven protocols do with their credit BDP. Endpoints run a
// RoCE-class stack (transport.RoCEStackLatency).
const irdWindow = 8

// Name implements Protocol.
func (IRD) Name() string { return "IRD" }

// WireBytes implements Protocol.
func (IRD) WireBytes(n int) int { return stackWire(transport.StackRoCE, n) }

// ReqWireBytes implements Protocol: notifications are idealized (free).
func (IRD) ReqWireBytes() int { return 0 }

type irdMsg struct {
	opIdx    int
	size     int
	src, dst int
}

type irdRun struct {
	cfg     Config
	eng     *sim.Engine
	up      []*pipe
	down    []*pipe
	pending [][]*irdMsg // per receiver: ungranted messages
	rxOut   []int       // receiver's outstanding grants
	sendQ   [][]*irdMsg // per sender: granted messages, FIFO
	txBusy  []bool
	track   *tracker
}

// Run implements Protocol.
func (i IRD) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(i.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		r := &irdRun{cfg: cfg, eng: eng, track: track}
		r.up = make([]*pipe, cfg.Nodes)
		r.down = make([]*pipe, cfg.Nodes)
		r.pending = make([][]*irdMsg, cfg.Nodes)
		r.rxOut = make([]int, cfg.Nodes)
		r.sendQ = make([][]*irdMsg, cfg.Nodes)
		r.txBusy = make([]bool, cfg.Nodes)
		for k := range r.up {
			r.up[k] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
			r.down[k] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
		}
		return r.arrive
	})
}

// arrive registers the data message at its receiver. For reads the data
// sender is the memory node and the receiver is the requester (the request
// leg is covered by the zero-time notification idealization).
func (r *irdRun) arrive(op workload.Op) {
	m := &irdMsg{opIdx: op.Index, size: op.Size, src: op.Src, dst: op.Dst}
	if op.Read {
		m.src, m.dst = op.Dst, op.Src
	}
	r.eng.After(transport.RoCEStackLatency, func() {
		r.pending[m.dst] = append(r.pending[m.dst], m)
		r.rxSchedule(m.dst)
	})
}

// rxSchedule commits the receiver to the SRPT-best pending message whose
// sender is idle right now. If every pending sender is busy, the receiver
// waits (under-utilization) until a sender frees.
func (r *irdRun) rxSchedule(dst int) {
	if r.rxOut[dst] >= irdWindow || len(r.pending[dst]) == 0 {
		return
	}
	best := -1
	for k, m := range r.pending[dst] {
		if r.txBusy[m.src] {
			continue
		}
		if best < 0 || m.size < r.pending[dst][best].size {
			best = k
		}
	}
	if best < 0 {
		return
	}
	m := r.pending[dst][best]
	r.pending[dst] = append(r.pending[dst][:best], r.pending[dst][best+1:]...)
	r.rxOut[dst]++
	// The grant travels one hop to the sender; two receivers may commit to
	// the same sender in the same instant — the loser queues (conflict).
	r.eng.After(edm.LinkLatency, func() {
		r.sendQ[m.src] = append(r.sendQ[m.src], m)
		r.txPump(m.src)
	})
}

func (r *irdRun) txPump(src int) {
	if r.txBusy[src] || len(r.sendQ[src]) == 0 {
		return
	}
	r.txBusy[src] = true
	m := r.sendQ[src][0]
	r.sendQ[src] = r.sendQ[src][1:]
	r.sendMsg(src, m)
}

// sendMsg streams the message. The receiver releases its commitment when
// the sender finishes serializing (receiver credits are pipelined, so the
// next grant's data lands back to back), and all receivers rescan because a
// sender is about to become idle.
func (r *irdRun) sendMsg(src int, m *irdMsg) {
	for _, n := range packetize(m.size, mtu) {
		n := n
		wire := transport.WireBytes(transport.StackRoCE, n)
		r.up[src].send(wire, nil)
		arrive := r.up[src].busyUntil + edm.LinkLatency + transport.L2ForwardingLatency
		r.eng.At(arrive, func() {
			r.down[m.dst].send(wire, func() {
				r.track.delivered(m.opIdx, n)
			})
		})
	}
	r.eng.At(r.up[src].busyUntil, func() {
		r.txBusy[src] = false
		r.txPump(src)
		r.rxOut[m.dst]--
		r.rxSchedule(m.dst)
		if !r.txBusy[src] {
			// The sender is idle: any waiting receiver may grab it.
			for d := 0; d < r.cfg.Nodes; d++ {
				r.rxSchedule(d)
			}
		}
	})
}
