package netsim

import (
	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CXL models a PCIe/CXL switch fabric: 256 B flits, link-level credit-based
// flow control, and an input-queued switch. Its unloaded latency is
// excellent (thin stack, ~100 ns per switch hop), but under load the
// credit loop fails exactly as §4.3.1 describes: an incast victim egress
// holds flits in ingress queues, those flits pin credits, and the deficit
// blocks every other flow crossing the same ingress — head-of-line
// blocking equivalent to PFC's.
type CXL struct{}

// CXL's parameters.
const (
	// cxlFlitBytes is the transfer granularity: a CXL 3.0 flit.
	cxlFlitBytes = 256
	// cxlCredits is the credit pool of each sender link, in flits.
	cxlCredits = 8
	// cxlHopLatency is the per-switch-hop latency (Pond's 100 ns).
	cxlHopLatency = 100 * sim.Nanosecond
	// cxlStackLatency is the endpoint controller latency.
	cxlStackLatency = 70 * sim.Nanosecond
	// cxlFlitOverhead is the per-flit framing (CRC, sequence, DLLP share).
	cxlFlitOverhead = 16
)

// Name implements Protocol.
func (CXL) Name() string { return "CXL" }

// WireBytes implements Protocol.
func (CXL) WireBytes(n int) int {
	total := 0
	for _, f := range packetize(n, cxlFlitBytes) {
		total += f + cxlFlitOverhead
	}
	return total
}

// ReqWireBytes implements Protocol.
func (CXL) ReqWireBytes() int { return 64 + cxlFlitOverhead }

type cxlFlit struct {
	opIdx int
	data  int
	isReq bool
	size  int
	wire  int
	src   int
	dst   int
}

type cxlIngress struct {
	q     []*cxlFlit
	bytes int64
}

type cxlRun struct {
	cfg     Config
	eng     *sim.Engine
	nicQ    [][]*cxlFlit
	nicBusy []bool
	credits []int
	ingress []*cxlIngress
	egBusy  []bool
	rr      []int
	track   *tracker
}

// Run implements Protocol.
func (c CXL) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(c.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		r := &cxlRun{cfg: cfg, eng: eng, track: track}
		r.nicQ = make([][]*cxlFlit, cfg.Nodes)
		r.nicBusy = make([]bool, cfg.Nodes)
		r.credits = make([]int, cfg.Nodes)
		r.ingress = make([]*cxlIngress, cfg.Nodes)
		r.egBusy = make([]bool, cfg.Nodes)
		r.rr = make([]int, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			r.credits[i] = cxlCredits
			r.ingress[i] = &cxlIngress{}
		}
		return r.arrive
	})
}

func (r *cxlRun) arrive(op workload.Op) {
	r.eng.After(cxlStackLatency, func() {
		if op.Read {
			// Read request flit c->m; the memory side streams data back.
			f := &cxlFlit{opIdx: op.Index, isReq: true, size: op.Size, src: op.Src, dst: op.Dst}
			f.wire = 64 + cxlFlitOverhead // request slot: address + framing
			r.nicEnqueue(f)
			return
		}
		r.enqueueData(op.Src, op.Dst, op.Index, op.Size)
	})
}

func (r *cxlRun) enqueueData(src, dst, opIdx, size int) {
	for _, n := range packetize(size, cxlFlitBytes) {
		f := &cxlFlit{opIdx: opIdx, data: n, size: size, src: src, dst: dst}
		f.wire = n + cxlFlitOverhead // per-flit framing (CRC, sequence)
		r.nicEnqueue(f)
	}
}

func (r *cxlRun) nicEnqueue(f *cxlFlit) {
	r.nicQ[f.src] = append(r.nicQ[f.src], f)
	r.nicPump(f.src)
}

// nicPump serializes flits while credits remain.
func (r *cxlRun) nicPump(src int) {
	if r.nicBusy[src] || len(r.nicQ[src]) == 0 {
		return
	}
	if r.credits[src] == 0 {
		return // resumed by credit return
	}
	r.nicBusy[src] = true
	r.credits[src]--
	f := r.nicQ[src][0]
	r.nicQ[src] = r.nicQ[src][1:]
	tx := sim.TransmissionTime(f.wire, r.cfg.Bandwidth)
	r.eng.After(tx, func() {
		r.nicBusy[src] = false
		r.nicPump(src)
	})
	r.eng.After(tx+edm.LinkLatency, func() { r.ingressArrive(f) })
}

func (r *cxlRun) ingressArrive(f *cxlFlit) {
	ing := r.ingress[f.src]
	ing.q = append(ing.q, f)
	ing.bytes += int64(f.wire)
	r.tryForward(f.dst)
}

// tryForward advances ingress heads into free egresses. A flit leaving its
// ingress queue returns one credit to the sender (after one propagation).
func (r *cxlRun) tryForward(d int) {
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
		f := ing.q[0]
		ing.q = ing.q[1:]
		ing.bytes -= int64(f.wire)
		// Credit return to sender i.
		r.eng.After(edm.DefaultPropDelay, func() {
			r.credits[i]++
			r.nicPump(i)
		})
		r.egBusy[d] = true
		tx := sim.TransmissionTime(f.wire, r.cfg.Bandwidth)
		// Egress occupied for serialization only; the switch hop latency is
		// pipelined.
		r.eng.After(tx, func() {
			r.egBusy[d] = false
			r.eng.After(cxlHopLatency+edm.LinkLatency, func() { r.deliver(f) })
			r.tryForwardAll()
		})
		return
	}
}

func (r *cxlRun) tryForwardAll() {
	for d := 0; d < r.cfg.Nodes; d++ {
		r.tryForward(d)
	}
}

func (r *cxlRun) deliver(f *cxlFlit) {
	r.eng.After(cxlStackLatency, func() {
		if f.isReq {
			r.enqueueData(f.dst, f.src, f.opIdx, f.size)
			return
		}
		r.track.delivered(f.opIdx, f.data)
	})
}
