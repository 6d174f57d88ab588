package netsim

import (
	"repro/internal/edm"
	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// EDM is the paper's fabric at message level: demand notifications and
// RREQ interception feed the central PIM scheduler; granted chunks flow
// through virtual circuits with no switch queueing. The zero value runs the
// §4.3 scheduler: sched.DefaultChunkBytes, sched.DefaultMaxActivePerPair,
// SRPT and sched.ASICClockPeriod.
type EDM struct {
	// ChunkBytes is the scheduler grant unit (0: sched.DefaultChunkBytes).
	ChunkBytes int
	// X is the sender window per data-direction pair, ops beyond it waiting
	// at the sender (0: sched.DefaultMaxActivePerPair).
	X int
	// Policy is FCFS or SRPT (the zero value, SRPT).
	Policy sched.Policy
	// MaxIterations caps PIM iterations per round (0 = maximal matching).
	MaxIterations int
	// BatchBytes, when positive, enables the §3.1.2 sender optimization:
	// several small writes waiting on the same pair are coalesced into one
	// "mega" message of up to BatchBytes and announced with a single
	// notification, reducing notification bandwidth and scheduler
	// occupancy under bursts of tiny messages.
	BatchBytes int
}

// Name implements Protocol.
func (e *EDM) Name() string { return "EDM" }

// WireBytes implements Protocol: data is chunked, each chunk framed in
// 66-bit blocks.
func (e *EDM) WireBytes(n int) int {
	total := 0
	for _, c := range packetize(n, orDefault(e.ChunkBytes, sched.DefaultChunkBytes)) {
		total += edmWire(c)
	}
	return total
}

// ReqWireBytes implements Protocol: an 8 B RREQ in three blocks.
func (e *EDM) ReqWireBytes() int { return edmWire(edmRreqBody) }

// orDefault returns a setting v, or def when v is unset (not positive).
func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// Fixed host/switch pipeline costs at every bandwidth. They are this
// model's chosen values, not derived: no whole number of Table 1 cycles
// (internal/edm/latency.go) gives 8 ns or 11 ns at either the 2.56 ns
// 25 GbE or the 0.64 ns 100 GbE block clock.
const (
	edmHostTx    = 8 * sim.Nanosecond
	edmHostRx    = 8 * sim.Nanosecond
	edmSwitchFwd = 11 * sim.Nanosecond
	edmNotifyLen = phy.BlockWireBytes // /N/ or /G/ block, bytes on wire
	edmRreqBody  = 8                  // an RREQ carries the target address
)

func edmWire(n int) int { return transport.WireBytes(transport.StackEDM, n) }

type edmPair struct {
	active int
	wait   []workload.Op
}

// megaGroup is one batched mega-message: member ops credited in order as
// the group's bytes arrive.
type megaGroup struct {
	members []workload.Op
	cursor  int // member currently being credited
	credit  int // bytes already credited to that member
}

type edmRun struct {
	p        *EDM
	cfg      Config
	eng      *sim.Engine
	sch      *sched.Scheduler
	up, down []*pipe
	track    *tracker
	pairs    map[[2]int]*edmPair
	ops      map[int]workload.Op
	groups   map[int]*megaGroup // keyed by lead op index
}

// Run implements Protocol.
func (e *EDM) Run(cfg Config, ops []workload.Op) (*Result, error) {
	return drive(e.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
		r := &edmRun{
			p:      e,
			cfg:    cfg,
			eng:    eng,
			track:  track,
			pairs:  make(map[[2]int]*edmPair),
			ops:    make(map[int]workload.Op, len(ops)),
			groups: make(map[int]*megaGroup),
		}
		r.sch = sched.New(eng, sched.Config{
			Ports:         cfg.Nodes,
			ChunkBytes:    int64(orDefault(e.ChunkBytes, sched.DefaultChunkBytes)),
			LinkBandwidth: cfg.Bandwidth,
			ClockPeriod:   sched.ASICClockPeriod,
			Policy:        e.Policy,
			MaxIterations: e.MaxIterations,
			// Pace grants at the chunk's true line occupancy, including the
			// 66-bit block framing.
			ChunkTime: func(l int64) sim.Time {
				return sim.TransmissionTime(edmWire(int(l)), cfg.Bandwidth)
			},
		})
		r.sch.OnGrant = r.onGrant
		r.up = make([]*pipe, cfg.Nodes)
		r.down = make([]*pipe, cfg.Nodes)
		for i := range r.up {
			r.up[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
			r.down[i] = newPipe(eng, cfg.Bandwidth, edm.LinkLatency)
		}
		for _, op := range ops {
			r.ops[op.Index] = op
		}
		return r.arrive
	})
}

// pairKeyOf keys the sender window of §3.1.2 by the DATA direction (for a
// read the data message flows Dst->Src): a read and a write that both move
// data A->B share one window. The testbed's hosts window per peer instead
// (README's Experiment map lists the difference).
func pairKeyOf(op workload.Op) [2]int {
	if op.Read {
		return [2]int{op.Dst, op.Src}
	}
	return [2]int{op.Src, op.Dst}
}

func (r *edmRun) arrive(op workload.Op) {
	pk := pairKeyOf(op)
	p := r.pairs[pk]
	if p == nil {
		p = &edmPair{}
		r.pairs[pk] = p
	}
	if p.active >= orDefault(r.p.X, sched.DefaultMaxActivePerPair) {
		p.wait = append(p.wait, op)
		return
	}
	p.active++
	r.start(op)
}

// notify hands a demand to the scheduler; a rejection is a model bug the
// run reports.
func (r *edmRun) notify(m sched.MsgRef) {
	if err := r.sch.Notify(m); err != nil {
		r.track.fail(err)
	}
}

// start sends the demand toward the switch: an RREQ for reads, an /N/ block
// for writes.
func (r *edmRun) start(op workload.Op) {
	src, dst := op.Src, op.Dst
	if op.Read {
		// RREQ c->switch; interception notifies the RRES (m->c) demand.
		r.eng.After(edmHostTx, func() {
			r.up[src].send(edmWire(edmRreqBody), func() {
				r.notify(sched.MsgRef{Src: dst, Dst: src, ID: uint64(op.Index), Size: int64(op.Size), Tag: op})
			})
		})
		return
	}
	r.eng.After(edmHostTx, func() {
		r.up[src].send(edmNotifyLen, func() {
			r.notify(sched.MsgRef{Src: src, Dst: dst, ID: uint64(op.Index), Size: int64(op.Size), Tag: op})
		})
	})
}

func (r *edmRun) onGrant(g sched.Grant) {
	op := r.ops[int(g.ID)]
	if g.First && op.Read {
		// The buffered RREQ is forwarded to the memory node as the first
		// grant; the memory node responds with the first chunk.
		r.eng.After(edmSwitchFwd, func() {
			r.down[g.Src].send(edmWire(edmRreqBody), func() {
				r.eng.After(edmHostRx, func() { r.sendChunk(g) })
			})
		})
		return
	}
	// Explicit /G/ to the data sender.
	r.down[g.Src].send(edmNotifyLen, func() {
		r.eng.After(edmHostRx, func() { r.sendChunk(g) })
	})
}

// sendChunk moves one granted chunk through the virtual circuit.
func (r *edmRun) sendChunk(g sched.Grant) {
	wire := edmWire(int(g.Chunk))
	idx := int(g.ID)
	r.up[g.Src].send(wire, func() {
		r.eng.After(edmSwitchFwd, func() {
			r.down[g.Dst].send(wire, func() {
				r.eng.After(edmHostRx, func() {
					if grp, ok := r.groups[idx]; ok {
						r.creditGroup(grp, int(g.Chunk))
					} else {
						r.track.delivered(idx, int(g.Chunk))
					}
					if g.Final {
						delete(r.groups, idx)
						r.retire(idx)
					}
				})
			})
		})
	})
}

// retire frees the pair window slot and admits waiters. With batching
// enabled, consecutive waiting small writes of the pair are coalesced into
// one mega message announced by a single notification (§3.1.2).
func (r *edmRun) retire(idx int) {
	op := r.ops[idx]
	pk := pairKeyOf(op)
	p := r.pairs[pk]
	p.active--
	if len(p.wait) == 0 {
		return
	}
	next := p.wait[0]
	p.wait = p.wait[1:]
	p.active++
	if r.p.BatchBytes <= 0 || next.Read || next.Size >= r.p.BatchBytes {
		r.start(next)
		return
	}
	group := &megaGroup{members: []workload.Op{next}}
	total := next.Size
	for len(p.wait) > 0 {
		cand := p.wait[0]
		if cand.Read || total+cand.Size > r.p.BatchBytes {
			break
		}
		group.members = append(group.members, cand)
		total += cand.Size
		p.wait = p.wait[1:]
	}
	if len(group.members) == 1 {
		r.start(next)
		return
	}
	r.groups[next.Index] = group
	src, dst := next.Src, next.Dst
	r.eng.After(edmHostTx, func() {
		r.up[src].send(edmNotifyLen, func() {
			r.notify(sched.MsgRef{Src: src, Dst: dst, ID: uint64(next.Index), Size: int64(total)})
		})
	})
}

// creditGroup distributes n arrived bytes across the group's members in
// order, completing each as its bytes fill.
func (r *edmRun) creditGroup(g *megaGroup, n int) {
	for n > 0 && g.cursor < len(g.members) {
		m := g.members[g.cursor]
		need := m.Size - g.credit
		take := n
		if take > need {
			take = need
		}
		r.track.delivered(m.Index, take)
		g.credit += take
		n -= take
		if g.credit == m.Size {
			g.cursor++
			g.credit = 0
		}
	}
}
