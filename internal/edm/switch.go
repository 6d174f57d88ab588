package edm

import (
	"fmt"

	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/sim"
)

// SwitchStats counts switch-level events.
type SwitchStats struct {
	NotifiesRX    uint64
	RequestsRX    uint64
	ChunksForward uint64
	GrantsTX      uint64
	// RejectedNotify counts demands the scheduler refused (sched.ErrBadRef,
	// sched.ErrDupID). A fault-free fabric rejects none; a damaged header can
	// name its sender as the destination: counted and dropped, like RxErrors.
	RejectedNotify uint64
	RxErrors       uint64 // malformed ingress, incl. a request whose src is not its port
	// CircuitResyncs counts stale circuit-FIFO heads discarded when a
	// granted chunk never materialized (its grant block was lost on a
	// disabled or lossy link) — the §3.3 circuit-teardown repair path.
	CircuitResyncs uint64
	// MaxEgressBacklog is the largest number of blocks ever queued on any
	// egress port — the paper's zero-queuing claim (§3.1.1 property 1)
	// bounds it to roughly one in-flight chunk plus control blocks.
	MaxEgressBacklog int
}

// Switch is EDM's switch network stack (Figure 3c): per-port PHY demuxes on
// ingress, the central scheduler, a grant generator, and virtual-circuit
// forwarding of data chunks from ingress to egress with no layer-2
// processing. /N/ blocks and RREQ/RMWREQ messages are intercepted as demand
// notifications; WREQ/RRES chunks are forwarded along the circuit FIFO that
// grants established.
type Switch struct {
	engine *sim.Engine
	sched  *sched.Scheduler
	ports  []*swPort
	stats  SwitchStats
}

type swPort struct {
	sw       *Switch
	idx      int
	egress   *Link // toward the host on this port
	mux      *phy.TxMux
	pumpBusy bool
	demux    phy.RxDemux
	circuits []int // FIFO of egress ports for inbound chunks, in grant order
}

func newSwitch(engine *sim.Engine, cfg Config, schedClock sim.Time) *Switch {
	sw := &Switch{engine: engine}
	sw.sched = sched.New(engine, sched.Config{
		Ports:         cfg.Ports,
		ChunkBytes:    ChunkBytes,
		LinkBandwidth: LinkBandwidth,
		ClockPeriod:   schedClock,
		Policy:        sched.SRPT,
	})
	sw.sched.OnGrant = sw.onGrant
	sw.ports = make([]*swPort, cfg.Ports)
	for i := range sw.ports {
		sw.ports[i] = &swPort{sw: sw, idx: i, mux: phy.NewTxMux(cfg.MuxPolicy)}
	}
	return sw
}

// Stats returns a copy of the switch counters.
func (sw *Switch) Stats() SwitchStats { return sw.stats }

// Scheduler exposes the embedded scheduler (read-only use in experiments).
func (sw *Switch) Scheduler() *sched.Scheduler { return sw.sched }

func (sw *Switch) cycles(n int) sim.Time { return sim.Time(n) * BlockPeriod }

// receive is the ingress path for port p.
func (sw *Switch) receive(p int, b phy.Block) {
	port := sw.ports[p]
	ev, err := port.demux.Feed(b)
	if err != nil {
		sw.stats.RxErrors++
		port.demux = phy.RxDemux{}
		return
	}
	switch {
	case ev.Notify != nil:
		n := UnpackNotify(*ev.Notify)
		sw.stats.NotifiesRX++
		sw.engine.After(sw.cycles(SwClassifyCycles), func() {
			err := sw.sched.Notify(sched.MsgRef{
				Src: p, Dst: n.Dst, ID: uint64(n.ID), Size: int64(n.Size),
			})
			if err != nil {
				sw.stats.RejectedNotify++
			}
		})
	case ev.Msg != nil:
		sw.handleMsg(p, *ev.Msg)
	case ev.Grant != nil:
		// Hosts never send grants.
		sw.stats.RxErrors++
	case ev.FrameBlock != nil:
		// Non-memory traffic traverses the standard layer-2 pipeline, which
		// EDM leaves untouched; this reproduction forwards memory traffic
		// only and counts stray frame blocks.
	}
}

// handleMsg classifies a completed inbound memory message: requests become
// notifications, data chunks ride their pre-established circuit.
func (sw *Switch) handleMsg(p int, w phy.MemMsg) {
	kind, src, dst, id, size, _ := PeekHeader(w)
	switch kind {
	case KindRREQ, KindRMW:
		if src != p { // damaged: its RRES would go to a host that never asked
			sw.stats.RxErrors++
			return
		}
		sw.stats.RequestsRX++
		sw.engine.After(sw.cycles(SwClassifyCycles), func() {
			// The RREQ is an implicit demand notification for the RRES
			// from dst (memory node) back to src (requester); the wire
			// message itself is buffered as the Tag and forwarded on the
			// first grant (§3.1.1).
			err := sw.sched.Notify(sched.MsgRef{
				Src: dst, Dst: src, ID: uint64(id), Size: int64(size), Tag: w,
			})
			if err != nil {
				sw.stats.RejectedNotify++
			}
		})
	case KindWREQ, KindRRES:
		port := sw.ports[p]
		// Stale circuit heads accumulate when a grant block is dropped on
		// a disabled/lossy link after its circuit was recorded: the
		// granted chunk never arrives, and without repair every later
		// chunk from this ingress would pop the wrong head and misroute.
		// The chunk's header dst is exactly what the scheduler granted
		// toward, so heads that do not match it belong to lost grants —
		// discard them (the §3.3 teardown of a faulted circuit).
		for len(port.circuits) > 0 && port.circuits[0] != dst {
			port.circuits = port.circuits[1:]
			sw.stats.CircuitResyncs++
		}
		if len(port.circuits) == 0 {
			sw.stats.RxErrors++ // chunk with no circuit: protocol violation
			return
		}
		out := port.circuits[0]
		port.circuits = port.circuits[1:]
		sw.stats.ChunksForward++
		sw.engine.After(sw.cycles(SwForwardCycles), func() {
			sw.ports[out].enqueue(w.Encode()...)
		})
	default:
		sw.stats.RxErrors++
	}
}

// onGrant implements the switch side of a scheduling decision.
func (sw *Switch) onGrant(g sched.Grant) {
	// The circuit — granted chunks arrive on ingress g.Src and leave on
	// egress g.Dst — is recorded when the grant block is enqueued on the
	// egress mux, NOT at issue time: an implicit first-RRES grant (the
	// forwarded RREQ, SwForwardCycles) and an explicit /G/
	// (SwGenGrantCycles) cross the switch with different pipeline delays,
	// so two grants to the same data sender can reach it in the opposite
	// of issue order when the scheduler clock outpaces the skew (e.g. the
	// 3 GHz ASIC clock of §4.3). The host serves its grant queue in
	// arrival order; stamping the circuit at egress-enqueue time keeps
	// both FIFOs identically ordered, where stamping at issue time
	// misroutes chunks to the wrong egress under concurrent reads.
	sw.stats.GrantsTX++

	if g.First && g.Tag != nil {
		// First grant of an RRES: forward the buffered RREQ/RMWREQ to the
		// memory node (it doubles as the grant).
		w, ok := g.Tag.(phy.MemMsg)
		if !ok {
			panic("edm: grant tag is not a wire message")
		}
		sw.engine.After(sw.cycles(SwForwardCycles), func() {
			sw.ports[g.Src].circuits = append(sw.ports[g.Src].circuits, g.Dst)
			sw.ports[g.Src].enqueue(w.Encode()...)
		})
		return
	}
	gb, err := GrantMsg{Dst: g.Dst, ID: uint8(g.ID), Chunk: uint32(g.Chunk)}.PackGrant()
	if err != nil {
		panic(fmt.Sprintf("edm: pack grant: %v", err))
	}
	sw.engine.After(sw.cycles(SwGenGrantCycles), func() {
		sw.ports[g.Src].circuits = append(sw.ports[g.Src].circuits, g.Dst)
		sw.ports[g.Src].enqueue(gb)
	})
}

// enqueue queues blocks on the port's egress mux and ensures the pump runs.
func (p *swPort) enqueue(blocks ...phy.Block) {
	p.mux.EnqueueMemory(blocks...)
	if b := p.mux.MemoryBacklog(); b > p.sw.stats.MaxEgressBacklog {
		p.sw.stats.MaxEgressBacklog = b
	}
	if p.pumpBusy {
		return
	}
	p.pumpBusy = true
	p.sw.engine.After(BlockPeriod, p.pumpStep)
}

func (p *swPort) pumpStep() {
	if p.mux.MemoryBacklog()+p.mux.FrameBacklog() == 0 {
		p.pumpBusy = false
		return
	}
	b, src := p.mux.Next()
	if src != phy.SrcIdle && p.egress != nil {
		p.egress.Send(b)
	}
	p.sw.engine.After(BlockPeriod, p.pumpStep)
}
