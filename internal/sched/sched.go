// Package sched implements EDM's centralized in-network memory-traffic
// scheduler (§3.1): a priority-augmented Parallel Iterative Matching (PIM)
// engine that dynamically reserves bandwidth between compute and memory
// nodes by admitting at most one sender per receiver at a time, creating
// virtual circuits with zero switch queuing while keeping the matching
// maximal (near-optimal bandwidth utilization).
//
// The scheduler is shared by the block-level testbed fabric (internal/edm)
// and the large-scale message-level simulator (internal/netsim).
package sched

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Policy selects the priority assignment for conflict resolution (§3.1.1
// property 4).
type Policy int

const (
	// SRPT prioritizes by remaining bytes; optimal for heavy-tailed
	// workloads and the paper's default for the §4.3 evaluation. To
	// preserve in-order delivery it is applied only across messages of
	// different source-destination pairs; within a pair messages are
	// served in notification order (§3.1.1 property 5). It is the zero
	// value so that zero-configured schedulers match the paper.
	SRPT Policy = iota
	// FCFS prioritizes by notification time; optimal for light-tailed
	// workloads.
	FCFS
)

// String names the policy.
func (p Policy) String() string {
	if p == SRPT {
		return "SRPT"
	}
	return "FCFS"
}

// Config parameterizes the scheduler.
type Config struct {
	// Ports is N, the number of switch ports.
	Ports int
	// ChunkBytes is c, the maximum bytes granted at once. The paper sets
	// it so the chunk's transmission time covers one maximal matching
	// (§3.1.3): 128 B minimum for a 512x100G switch, DefaultChunkBytes in
	// simulations.
	ChunkBytes int64
	// LinkBandwidth is B, used for the l/B busy-release optimization.
	LinkBandwidth sim.Gbps
	// ClockPeriod is the scheduler pipeline clock (ASICClockPeriod; the
	// 25 GbE FPGA prototype clocks it at the PCS clock, 2.56 ns).
	ClockPeriod sim.Time
	// Policy selects FCFS or SRPT.
	Policy Policy
	// MaxIterations caps PIM iterations per matching round; 0 means iterate
	// to a maximal matching (the paper's behaviour, ~log N iterations on
	// average). Values >0 are used by the ablation benchmarks.
	MaxIterations int
	// ChunkTime, if set, overrides the busy-release duration for a granted
	// chunk of l bytes. Callers whose wire format adds framing (e.g. EDM's
	// 66-bit blocks) use it so grants are paced at the true line occupancy;
	// the default is TransmissionTime(l, LinkBandwidth).
	ChunkTime func(l int64) sim.Time
}

// The scheduler of the paper's simulations (§4.3), with SRPT: the one
// definition DefaultConfig and the flow-level model (internal/netsim) share.
const (
	// DefaultChunkBytes is c in the simulations.
	DefaultChunkBytes = 256
	// DefaultMaxActivePerPair is X, the active notifications a sender
	// keeps per peer (§3.1.2); the paper finds X = 3 best. The senders'
	// windows enforce it; the scheduler does not check it.
	DefaultMaxActivePerPair = 3
	// ASICClockPeriod is the pipeline clock of the 3 GHz ASIC synthesis.
	ASICClockPeriod = 333 * sim.Picosecond
)

// DefaultConfig mirrors the paper's simulation parameters (§4.3).
func DefaultConfig(ports int) Config {
	return Config{
		Ports:         ports,
		ChunkBytes:    DefaultChunkBytes,
		LinkBandwidth: 100,
		ClockPeriod:   ASICClockPeriod,
		Policy:        SRPT,
	}
}

// IterationCycles is the pipeline depth of one PIM iteration: one cycle of
// parallel notification-queue peeks, one cycle of priority-encoder
// arbitration per source, one cycle to commit busy bits (§3.1.2).
const IterationCycles = 3

// MsgRef identifies a message awaiting scheduling.
type MsgRef struct {
	// Src and Dst are switch ports: the sender and receiver of the data
	// message (for an RRES, Src is the memory node).
	Src, Dst int
	// ID distinguishes messages between the same pair (8 bits on the wire).
	ID uint64
	// Size is the total bytes to move.
	Size int64
	// Tag is opaque caller state, e.g. the buffered RREQ that the switch
	// forwards to the memory node as the implicit first grant.
	Tag any
}

// Grant is one scheduling decision: permission to send Chunk bytes of the
// referenced message starting at Offset.
type Grant struct {
	MsgRef
	Offset int64
	Chunk  int64
	// First marks the message's first grant (for RRES messages this is the
	// moment the buffered RREQ is released toward the memory node).
	First bool
	// Final marks the grant that exhausts the message.
	Final bool
}

// Scheduler errors.
var (
	ErrBadRef = errors.New("sched: invalid message reference")
	ErrDupID  = errors.New("sched: duplicate message id for pair")
)

type message struct {
	MsgRef
	remaining  int64
	granted    int64
	notifyTime sim.Time
	// stamp orders messages by when their queue key was last set: a
	// source's encoder breaks equal keys in favour of the older stamp.
	stamp uint64
}

type pairKey struct{ src, dst int }

// Scheduler is the central PIM scheduler. It is event-driven: notifications
// and port releases trigger matching rounds on the provided engine. Not
// safe for concurrent use (the engine is single-threaded).
type Scheduler struct {
	cfg    Config
	engine *sim.Engine

	// OnGrant delivers each grant at its issue time. The caller models
	// grant propagation to the sender.
	OnGrant func(Grant)

	queues  []*orderedList[*message] // per destination port
	busySrc []bool
	busyDst []bool
	pairs   map[pairKey][]*message
	// best is the encoders' register: per source port, the best request
	// seen in the current PIM iteration (nil when none).
	best      []*message
	nextStamp uint64

	roundPending bool

	// statistics
	grantsIssued   uint64
	notifies       uint64
	totalIters     uint64
	rounds         uint64
	activeMessages int
}

// New returns a scheduler bound to the engine.
func New(engine *sim.Engine, cfg Config) *Scheduler {
	if cfg.Ports <= 0 || cfg.ChunkBytes <= 0 || cfg.LinkBandwidth <= 0 || cfg.ClockPeriod <= 0 {
		panic("sched: invalid config")
	}
	s := &Scheduler{
		cfg:     cfg,
		engine:  engine,
		queues:  make([]*orderedList[*message], cfg.Ports),
		busySrc: make([]bool, cfg.Ports),
		busyDst: make([]bool, cfg.Ports),
		pairs:   make(map[pairKey][]*message),
		best:    make([]*message, cfg.Ports),
	}
	for i := range s.queues {
		s.queues[i] = &orderedList[*message]{}
	}
	return s
}

// Stats reports grants issued, notifications accepted, matching rounds run
// and total PIM iterations across them.
func (s *Scheduler) Stats() (grants, notifies, rounds, iters uint64) {
	return s.grantsIssued, s.notifies, s.rounds, s.totalIters
}

// Active reports messages currently known to the scheduler.
func (s *Scheduler) Active() int { return s.activeMessages }

// QueueLen reports the notification-queue length for destination port d.
func (s *Scheduler) QueueLen(d int) int { return s.queues[d].Len() }

// MatchingLatency reports the average time to form one maximal matching:
// 3*log2(N) cycles (§3.1.3).
func (s *Scheduler) MatchingLatency() sim.Time {
	return sim.Time(IterationCycles*log2ceil(s.cfg.Ports)) * s.cfg.ClockPeriod
}

func log2ceil(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}

// priority returns the ordering key for m (lower = higher priority).
func (s *Scheduler) priority(m *message) int64 {
	if s.cfg.Policy == SRPT {
		return m.remaining
	}
	return int64(m.notifyTime)
}

// restamp records that m's queue key was just set.
func (s *Scheduler) restamp(m *message) {
	m.stamp = s.nextStamp
	s.nextStamp++
}

// outranks reports whether a source's encoder prefers request a to b: the
// lower queue key, then the older key stamp.
func (s *Scheduler) outranks(a, b *message) bool {
	if pa, pb := s.priority(a), s.priority(b); pa != pb {
		return pa < pb
	}
	return a.stamp < b.stamp
}

// Notify registers a demand notification: an explicit /N/ for a WREQ, or an
// intercepted RREQ/RMWREQ standing in for its RRES. It caps no pair: the
// senders' windows keep X (§3.1.2). A pair's demand comes from two hosts,
// the writer's WREQs and the reader's RREQs, so its FIFO, served in
// notification order, holds up to 2X (more only while a read that its host
// timed out still has demand here).
func (s *Scheduler) Notify(ref MsgRef) error {
	if ref.Src < 0 || ref.Src >= s.cfg.Ports || ref.Dst < 0 || ref.Dst >= s.cfg.Ports {
		return fmt.Errorf("%w: src=%d dst=%d", ErrBadRef, ref.Src, ref.Dst)
	}
	if ref.Src == ref.Dst {
		return fmt.Errorf("%w: src == dst == %d", ErrBadRef, ref.Src)
	}
	if ref.Size <= 0 {
		return fmt.Errorf("%w: size=%d", ErrBadRef, ref.Size)
	}
	key := pairKey{ref.Src, ref.Dst}
	fifo := s.pairs[key]
	for _, m := range fifo {
		if m.ID == ref.ID {
			return fmt.Errorf("%w: id=%d pair %d->%d", ErrDupID, ref.ID, ref.Src, ref.Dst)
		}
	}
	m := &message{MsgRef: ref, remaining: ref.Size, notifyTime: s.engine.Now()}
	s.pairs[key] = append(fifo, m)
	s.activeMessages++
	s.notifies++
	if len(s.pairs[key]) == 1 {
		s.enqueueHead(m)
	}
	s.kick()
	return nil
}

// enqueueHead makes m (the head of its pair FIFO) visible to the matching.
// Only pair heads are eligible, which restricts SRPT to inter-pair
// competition and guarantees in-order delivery within a pair.
func (s *Scheduler) enqueueHead(m *message) {
	s.queues[m.Dst].Insert(s.priority(m), m)
	s.restamp(m)
}

// kick coalesces round requests: at most one matching round is pending at a
// time, scheduled one iteration-pipeline delay ahead.
func (s *Scheduler) kick() {
	if s.roundPending {
		return
	}
	s.roundPending = true
	s.engine.After(0, s.round)
}

// round runs PIM iterations until the matching is maximal (or the
// configured iteration cap), issuing grants with the pipeline's cycle
// latency applied.
func (s *Scheduler) round() {
	s.roundPending = false
	s.rounds++
	for iter := 1; s.cfg.MaxIterations == 0 || iter <= s.cfg.MaxIterations; iter++ {
		// Cycle 1: every free destination port peeks the highest-priority
		// eligible message in its notification queue, in parallel, and
		// requests that message's source.
		// Cycle 2: every source port's priority encoder picks the best of
		// its requests. A destination queue holds one message per source
		// (its pair head), so the best request is the one with the lowest
		// queue key, the earliest keyed among equals: what the paper's
		// per-source sorted array of destinations would report.
		any := false
		for d, q := range s.queues {
			if s.busyDst[d] {
				continue
			}
			e, ok := q.PeekMinWhere(func(m *message) bool { return !s.busySrc[m.Src] })
			if !ok {
				continue
			}
			m := e.Value
			if b := s.best[m.Src]; b == nil || s.outranks(m, b) {
				s.best[m.Src] = m
			}
			any = true
		}
		if !any {
			return
		}
		s.totalIters++
		// Cycle 3: commit each source's match and issue its grant.
		for src, m := range s.best {
			if m != nil {
				s.best[src] = nil
				s.issue(m, iter)
			}
		}
	}
}

// issue grants the next chunk of m and marks its ports busy until the chunk
// would have been serialized (the l/B early-release optimization of
// §3.1.1 step 7).
func (s *Scheduler) issue(m *message, iter int) {
	l := s.cfg.ChunkBytes
	if m.remaining < l {
		l = m.remaining
	}
	g := Grant{
		MsgRef: m.MsgRef,
		Offset: m.granted,
		Chunk:  l,
		First:  m.granted == 0,
		Final:  m.remaining == l,
	}
	m.granted += l
	m.remaining -= l
	s.busySrc[m.Src] = true
	s.busyDst[m.Dst] = true
	s.grantsIssued++

	issueDelay := sim.Time(IterationCycles*iter) * s.cfg.ClockPeriod
	src, dst := m.Src, m.Dst
	if s.OnGrant != nil {
		gg := g
		s.engine.After(issueDelay, func() { s.OnGrant(gg) })
	}
	chunkTime := sim.TransmissionTime(int(l), s.cfg.LinkBandwidth)
	if s.cfg.ChunkTime != nil {
		chunkTime = s.cfg.ChunkTime(l)
	}
	release := issueDelay + chunkTime
	s.engine.After(release, func() {
		s.busySrc[src] = false
		s.busyDst[dst] = false
		s.kick()
	})

	if g.Final {
		s.retire(m)
	} else if s.cfg.Policy == SRPT {
		// Remaining bytes changed: reposition in the destination queue (a
		// delete+insert pipeline in hardware).
		s.queues[m.Dst].UpdateKey(func(x *message) bool { return x == m }, s.priority(m))
		s.restamp(m)
	}
}

// retire removes a fully granted message and promotes the next message of
// its pair, if any.
func (s *Scheduler) retire(m *message) {
	s.queues[m.Dst].DeleteWhere(func(x *message) bool { return x == m })
	key := pairKey{m.Src, m.Dst}
	fifo := s.pairs[key]
	if len(fifo) == 0 || fifo[0] != m {
		panic("sched: retired message is not its pair head")
	}
	fifo = fifo[1:]
	s.activeMessages--
	if len(fifo) == 0 {
		delete(s.pairs, key)
		return
	}
	s.pairs[key] = fifo
	s.enqueueHead(fifo[0])
}
