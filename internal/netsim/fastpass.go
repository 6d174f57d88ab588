package netsim

import (
	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Fastpass models the centralized server-based arbiter with the paper's
// idealized assumptions: the arbiter solves the global matching infinitely
// fast and assigns conflict-free timeslots, but every request and grant
// must cross the arbiter server's single 100 Gbps NIC. With per-message
// control traffic and hundreds of nodes, that NIC is the bottleneck — the
// aggregate cluster bandwidth is >100x the server's — so control messages
// queue for ages even though the data plane is perfectly scheduled.
type Fastpass struct{}

// fastpassControlBytes is the wire size of a request or grant: one minimum
// Ethernet frame. Endpoints run a RoCE-class stack
// (transport.RoCEStackLatency).
const fastpassControlBytes = 84

// Name implements Protocol.
func (Fastpass) Name() string { return "Fastpass" }

// WireBytes implements Protocol.
func (Fastpass) WireBytes(n int) int { return stackWire(transport.StackRoCE, n) }

// ReqWireBytes implements Protocol: the request/grant pair rides the
// arbiter links, not the data path.
func (Fastpass) ReqWireBytes() int { return 0 }

type fpRun struct {
	cfg      Config
	eng      *sim.Engine
	up, down []*pipe
	// arbIn serializes all requests into the arbiter; arbOut all grants
	// out of it. These two pipes are the protocol's defining bottleneck.
	arbIn, arbOut *pipe
	srcFree       []sim.Time // per-source next free timeslot
	dstFree       []sim.Time
	track         *tracker
}

// Run implements Protocol.
func (f Fastpass) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(f.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		r := &fpRun{cfg: cfg, eng: eng, track: track}
		r.up = make([]*pipe, cfg.Nodes)
		r.down = make([]*pipe, cfg.Nodes)
		r.srcFree = make([]sim.Time, cfg.Nodes)
		r.dstFree = make([]sim.Time, cfg.Nodes)
		for i := range r.up {
			r.up[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
			r.down[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
		}
		r.arbIn = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
		r.arbOut = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
		return func(op workload.Op) {
			eng.After(transport.RoCEStackLatency, func() { r.request(op) })
		}
	})
}

// request sends the demand to the arbiter. For reads the data sender is the
// memory node; the requesting side's ask covers it (Fastpass would have the
// memory node ask, adding RTT/2, modelled as one extra propagation).
func (r *fpRun) request(op workload.Op) {
	src, dst := op.Src, op.Dst
	if op.Read {
		src, dst = op.Dst, op.Src
	}
	extra := sim.Time(0)
	if op.Read {
		extra = 2 * edm.DefaultPropDelay // request leg to the memory node
	}
	r.eng.After(extra, func() {
		// Request: sender uplink -> switch -> arbiter ingress (the choke
		// point: requests from all N nodes serialize here).
		r.up[op.Src].send(fastpassControlBytes, func() {
			r.arbIn.send(fastpassControlBytes, func() {
				// Infinitely fast matching: allocate the earliest
				// conflict-free timeslot.
				wire := stackWire(transport.StackRoCE, op.Size)
				slot := r.eng.Now()
				if r.srcFree[src] > slot {
					slot = r.srcFree[src]
				}
				if r.dstFree[dst] > slot {
					slot = r.dstFree[dst]
				}
				txAll := sim.TransmissionTime(wire, r.cfg.Bandwidth)
				r.srcFree[src] = slot + txAll
				r.dstFree[dst] = slot + txAll
				// Grant: arbiter egress -> switch -> sender.
				r.arbOut.send(fastpassControlBytes, func() {
					r.down[src].send(fastpassControlBytes, func() {
						start := slot
						if now := r.eng.Now(); now > start {
							start = now
						}
						r.eng.At(start, func() { r.sendData(src, dst, op) })
					})
				})
			})
		})
	})
}

// sendData streams the scheduled message; by construction the path is
// conflict-free, so only serialization and propagation apply.
func (r *fpRun) sendData(src, dst int, op workload.Op) {
	for _, n := range packetize(op.Size, mtu) {
		n := n
		wire := transport.WireBytes(transport.StackRoCE, n)
		r.up[src].send(wire, nil)
		arrive := r.up[src].busyUntil + edm.LinkLatency + transport.L2ForwardingLatency
		r.eng.At(arrive, func() {
			r.down[dst].send(wire, func() {
				r.eng.After(transport.RoCEStackLatency, func() { r.track.delivered(op.Index, n) })
			})
		})
	}
}
