package scenario

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/edm"
	"repro/internal/rmem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

// liveRetry tunes the reliable layer for single-node live runs: a short real
// retransmission timeout (the virtual clock, not the wall clock, is what the
// report measures) and enough retries to ride out a fault window a few
// microseconds of virtual time wide. clusterRetry is tighter: every op that
// touches a dead node burns the whole budget in wall time before failing
// over, so the budget is kept to a few milliseconds.
var (
	liveRetry    = wire.ConnConfig{RetryTimeout: time.Millisecond, MaxRetries: 8}
	clusterRetry = wire.ConnConfig{RetryTimeout: time.Millisecond, MaxRetries: 2}
)

// Cluster backend sizing: a slab small enough that a re-mirror pass is a
// bounded slice of the run, with enough extents (64 at these sizes) that a
// killed node always holds a few.
const (
	clusterSlabBytes   = 32 << 20
	clusterExtentBytes = 512 << 10
)

// rateWindow is a burst fault window with a deterministic 1-in-N hit counter.
type rateWindow struct {
	interval
	node  int
	kind  EventKind // DropBurst or CorruptBurst
	oneIn uint64
	seen  uint64
}

// liveFaults is the fault state every loopback's hook consults. Hooks on
// different loopbacks run concurrently (each under its own loopback lock)
// and retransmissions fire from timer goroutines, hence the mutex.
type liveFaults struct {
	mu   sync.Mutex
	cur  *workload.Op // guarded by mu: op whose datagrams are on the wire
	dead []bool       // guarded by mu: killed (or not-yet-joined) memory nodes
	// down and rate are built before any hook runs and never change after;
	// each window's seen counter advances only while mu is held.
	down map[int][]interval // merged darkness windows per node
	rate []*rateWindow
}

// newLiveFaults builds the window faults of a run over the given node count.
// LinkDown flaps darken a node's link transiently and bursts degrade it. On
// the single-node backend absences (leave/join) are darkness too, as on the
// fabric backend; on the cluster they are membership changes, not windows.
// Every burst's OneIn is set: Run validates the spec first.
func newLiveFaults(events []Event, nodes int, absencesDarken bool) *liveFaults {
	fs := &liveFaults{dead: make([]bool, nodes), down: darkWindows(events, nodes, absencesDarken)}
	for _, e := range events {
		if e.Kind != CorruptBurst && e.Kind != DropBurst {
			continue
		}
		fs.rate = append(fs.rate, &rateWindow{interval: interval{e.At, e.Until},
			node: e.Node, kind: e.Kind, oneIn: e.OneIn})
	}
	return fs
}

// hook builds one loopback's fault adjudicator. With n >= 0 the loopback is
// memory node n's: its death drops everything — the membership driver's
// traffic included — and it consults node n's windows. With n < 0 it is the
// one transport every op crosses, and consults the windows of the current
// op's two endpoints.
//
// Windows are matched against the current op's *arrival* (the spec's
// timeline), not the transport's virtual now: the closed-loop replay
// serializes the whole trace through one issuer, so the virtual clock
// outruns the arrival schedule almost immediately and window membership in
// transport time would be meaningless. Arrival matching also keeps fault
// exposure identical to the report's definition on the other backends.
func (fs *liveFaults) hook(n int) func(sim.Time, wire.Dir, []byte) wire.Fault {
	return func(_ sim.Time, _ wire.Dir, _ []byte) wire.Fault {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if n >= 0 && fs.dead[n] {
			return wire.FaultDrop
		}
		op := fs.cur
		if op == nil {
			return wire.FaultNone // handshake, teardown, rebalance traffic
		}
		nodes := [2]int{n, n}
		if n < 0 {
			nodes = [2]int{op.Src, op.Dst}
		}
		for _, x := range nodes {
			if _, hit := covering(fs.down[x], op.Arrival); hit {
				return wire.FaultDrop
			}
		}
		for _, w := range fs.rate {
			if (w.node != nodes[0] && w.node != nodes[1]) || op.Arrival < w.start || op.Arrival >= w.end {
				continue
			}
			w.seen++
			if w.seen%w.oneIn == 0 {
				if w.kind == DropBurst {
					return wire.FaultDrop
				}
				return wire.FaultCorrupt
			}
		}
		return wire.FaultNone
	}
}

func (fs *liveFaults) setCur(op *workload.Op) {
	fs.mu.Lock()
	fs.cur = op
	fs.mu.Unlock()
}

func (fs *liveFaults) isDead(n int) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.dead[n]
}

func (fs *liveFaults) setDead(n int, dead bool) {
	fs.mu.Lock()
	fs.dead[n] = dead
	fs.mu.Unlock()
}

// memberStep is one membership step of a cluster replay. A NodeLeave is two:
// the kill darkens the node's transport at the event time, and DetectDelay
// later (kill unset) the map epoch advances and its extents re-mirror. A
// NodeJoin lights the node up and re-mirrors onto it in one step.
type memberStep struct {
	at   sim.Time
	node int
	kind EventKind // NodeLeave or NodeJoin
	kill bool
}

// membership drives the cluster's map through the scenario's leave/join
// events as the replay reaches their times — the only part of a live run
// the single-node backend has no counterpart for — re-mirrors what the
// client evicts on its own (a replica that missed an acked write), and
// rejoins an evicted node once its link is back.
type membership struct {
	spec  *Spec
	cc    *cluster.Client
	fs    *liveFaults
	clock *wire.VirtualClock
	steps []memberStep // in time order
	next  int
	err   error // first failure; later steps are skipped
	// epoch is the client's map epoch after the driver's last pass; the
	// client has evicted a node since when it differs. killed counts the
	// killed nodes whose leave step has not run yet.
	epoch  uint64
	killed int

	rebalances int
	movedBytes uint64
	lostExt    int
	recoveryUS []float64
}

func newMembership(spec *Spec, events []Event, cc *cluster.Client, fs *liveFaults, clock *wire.VirtualClock) (*membership, error) {
	md := &membership{spec: spec, cc: cc, fs: fs, clock: clock}
	for _, e := range events {
		switch e.Kind {
		case NodeLeave:
			md.steps = append(md.steps,
				memberStep{at: e.At, node: e.Node, kind: NodeLeave, kill: true},
				memberStep{at: e.At + spec.DetectDelay, node: e.Node, kind: NodeLeave})
		case NodeJoin:
			md.steps = append(md.steps, memberStep{at: e.At, node: e.Node, kind: NodeJoin})
			// A node with a pending join starts outside the membership.
			if err := cc.MarkDead(e.Node); err != nil {
				return nil, fmt.Errorf("scenario %s: initial join set: %w", spec.Name, err)
			}
		}
	}
	sort.SliceStable(md.steps, func(i, j int) bool { return md.steps[i].at < md.steps[j].at })
	// One set-up pass puts every extent on a pair of members before the
	// first op: an extent whose first pair are both pre-join nodes would
	// otherwise start with no in-sync holder in the map. The pre-join nodes
	// are fresh and still answer here, so the pass copies from them; they go
	// dark only after it. The report does not count it among its passes.
	if _, err := cc.Rebalance(); err != nil {
		return nil, fmt.Errorf("scenario %s: initial join set: %w", spec.Name, err)
	}
	for _, s := range md.steps {
		if s.kind == NodeJoin {
			fs.setDead(s.node, true)
		}
	}
	md.epoch = cc.Epoch()
	return md, nil
}

// apply runs every step due by upTo, each at its own time on the clock. It
// then rejoins every node the client evicted whose link is back at upTo, and
// re-mirrors what the client has evicted on its own since the driver's last
// pass (recovery counts from the eviction). While a killed node awaits its
// leave step, every pass waits, a step's own included: it would time out on
// the dark node, which is still in the map. The client's replica record
// keeps the changes owed, and the next pass copies them.
func (md *membership) apply(upTo sim.Time) {
	for md.err == nil && md.next < len(md.steps) && md.steps[md.next].at <= upTo {
		s := md.steps[md.next]
		md.next++
		md.clock.AdvanceTo(s.at)
		if s.kill {
			md.fs.setDead(s.node, true)
			md.killed++
			continue
		}
		var err error
		detect := md.spec.DetectDelay // recovery counts from the failure
		if s.kind == NodeLeave {
			md.killed--
			err = md.cc.MarkDead(s.node)
		} else {
			detect = 0
			md.fs.setDead(s.node, false)
			err = md.cc.Rejoin(s.node)
		}
		if err != nil {
			md.err = fmt.Errorf("scenario %s: node %d %s: %w", md.spec.Name, s.node, s.kind, err)
			return
		}
		if md.killed == 0 {
			md.rebalance(fmt.Sprintf("node %d %s", s.node, s.kind), detect)
		}
	}
	if md.err != nil || md.killed > 0 {
		return
	}
	// A dead node (killed, left or awaiting a join) is the spec's, not the
	// driver's, to bring back.
	m := md.cc.Map()
	for n := 0; n < md.spec.Nodes; n++ {
		if _, dark := covering(md.fs.down[n], upTo); dark || m.Alive(n) || md.fs.isDead(n) {
			continue
		}
		if err := md.cc.Rejoin(n); err != nil {
			md.err = fmt.Errorf("scenario %s: node %d rejoin: %w", md.spec.Name, n, err)
			return
		}
	}
	if md.cc.Epoch() != md.epoch {
		md.rebalance("eviction or rejoin", 0)
	}
}

// rebalance drains the client's owed re-mirrors and counts the pass, its
// recovery being detect plus the pass's duration.
func (md *membership) rebalance(cause string, detect sim.Time) {
	st, err := md.cc.Rebalance()
	if err != nil {
		md.err = fmt.Errorf("scenario %s: %s: %w", md.spec.Name, cause, err)
		return
	}
	md.epoch = md.cc.Epoch()
	md.rebalances++
	md.movedBytes += st.Bytes
	md.lostExt += st.Lost
	md.recoveryUS = append(md.recoveryUS, (detect + sim.Time(st.DurNS)*sim.Nanosecond).Microseconds())
}

// runLive executes the scenario against the real wire/rmem code path over
// loopback transports sharing one virtual clock: a single in-process rmem
// server (backend "live"), or Nodes of them fronted by a dual-homed
// cluster.Client ("live-cluster"). Either way the far side is an
// rmem.Memory and the trace is replayed through it closed-loop at window 1
// (arrivals honoured via AdvanceTo, membership events interleaved at their
// times), so retransmissions and failover re-issues serialize and every
// latency — and therefore the whole report — is a deterministic function of
// the spec. Fault events map onto the transport: LinkDown windows drop
// every datagram they cover, DropBurst windows drop 1-in-OneIn,
// CorruptBurst windows flip a bit in 1-in-OneIn (caught by the codec CRC
// and recovered by retransmission). Ops whose retry budget is exhausted on
// every replica surface as drops, the live analogue of the fabric backend's
// NULL-response timeouts; so do reads whose data fails the replay's check.
func runLive(spec *Spec) (*Report, error) {
	clustered := spec.Backend == BackendLiveCluster
	part, tagged, bounds, horizon, events, err := prologue(spec)
	if err != nil {
		return nil, err
	}
	fs := newLiveFaults(events, spec.Nodes, !clustered)

	// One clock across every transport: each delivered or dropped datagram
	// anywhere charges the same timebase.
	clock := wire.NewVirtualClock()
	// Every node client counts on one ClientMetrics: its series are the sums
	// the report's transport rows read.
	cm := rmem.NewClientMetrics(nil)
	var conns []*rmem.Client
	var lbs []*wire.Loopback
	connect := func(node int, slab uint64, ccfg rmem.ClientConfig) error {
		srv, err := rmem.NewServer(rmem.ServerConfig{Geometry: rmem.Geometry{SlabBytes: slab}})
		if err != nil {
			return err
		}
		lb := wire.NewLoopback(wire.LoopbackConfig{Fault: fs.hook(node), Clock: clock})
		ccfg.Metrics = cm
		cl := rmem.NewClient(lb.ClientPipe(), ccfg)
		lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
		lb.BindClient(cl.Deliver)
		conns = append(conns, cl)
		lbs = append(lbs, lb)
		return cl.Connect()
	}
	var mem rmem.Memory
	var space uint64
	var cc *cluster.Client
	var md *membership
	if !clustered {
		if err := connect(-1, 0, rmem.ClientConfig{Window: 1, Retry: liveRetry}); err != nil {
			return nil, err
		}
		mem, space = conns[0], conns[0].Geometry().SlabBytes
	} else {
		for n := 0; n < spec.Nodes; n++ {
			if err := connect(n, clusterSlabBytes, rmem.ClientConfig{Window: 4, Retry: clusterRetry}); err != nil {
				return nil, err
			}
		}
		cc, err = cluster.New(conns, cluster.Config{
			Seed:        spec.Seed,
			ExtentBytes: clusterExtentBytes,
			NowNS:       func() int64 { return int64(clock.Now() / sim.Nanosecond) },
		})
		if err != nil {
			return nil, err
		}
		if md, err = newMembership(spec, events, cc, fs, clock); err != nil {
			return nil, err
		}
		mem, space = cc, cc.Size()
	}

	ops, addrs := place(part, tagged, space)

	// Per-phase transport deltas: counters are snapshotted at every phase
	// boundary of the (arrival-ordered) replay, so each phase's row in the
	// report attributes the retransmissions and fault hits it caused.
	// Handshake traffic lands in the baseline snapshot, not phase 0.
	links := func() wire.LoopbackStats {
		var s wire.LoopbackStats
		for _, lb := range lbs {
			ls := lb.Stats()
			s.Delivered += ls.Delivered
			s.Dropped += ls.Dropped
			s.Corrupted += ls.Corrupted
		}
		return s
	}
	deltas := make([]WireDelta, len(spec.Phases))
	lastPhase := -1
	var sent, retransmits, timeouts uint64 // cm.Conn's counters at the last boundary
	var snapLS wire.LoopbackStats
	boundary := func(next int) {
		c := cm.Conn
		s, r, to := c.Datagrams.Load(), c.Retransmits.Load(), c.Timeouts.Load()
		ls := links()
		if lastPhase >= 0 {
			d := &deltas[lastPhase]
			d.Sent += s - sent
			d.Retransmits += r - retransmits
			d.Timeouts += to - timeouts
			d.Dropped += ls.Dropped - snapLS.Dropped
			d.Corrupted += ls.Corrupted - snapLS.Corrupted
		}
		sent, retransmits, timeouts = s, r, to
		snapLS = ls
		lastPhase = next
	}

	// failovers[i] is the cluster's failover counter as op i is issued; an
	// op during which it moved survived on its other replica.
	failovers := make([]uint64, len(ops)+1)
	countFailovers := func(i int) {
		if cc != nil {
			failovers[i] = cc.Metrics().Failovers.Load()
		}
	}
	boundary(-1)
	results := rmem.Replay(mem, ops, addrs, rmem.ReplayConfig{
		Window: 1,
		Now:    clock.Now,
		// At window 1 the previous op has completed when Before runs, so the
		// wire is quiet while the phase snapshot and the membership steps
		// (whose rebalance traffic must not be matched against an op) run.
		Before: func(i int) {
			fs.setCur(nil)
			if tagged[i].meta.phase != lastPhase {
				boundary(tagged[i].meta.phase)
			}
			if md != nil {
				md.apply(ops[i].Arrival)
			}
			clock.AdvanceTo(ops[i].Arrival)
			countFailovers(i)
			fs.setCur(&ops[i])
		},
	})
	fs.setCur(nil)
	countFailovers(len(ops))
	if md != nil {
		// Membership changes scheduled past the last arrival still run (a
		// kill near the horizon must finish its re-mirror before the report).
		md.apply(horizon + spec.DetectDelay)
		if md.err != nil {
			return nil, md.err
		}
	}
	boundary(-1)
	rep := &Report{
		Scenario: spec.Name, Backend: spec.Backend, Protocol: "EDM",
		Nodes: spec.Nodes, Seed: spec.Seed,
		Horizon: clock.Now(), Issued: len(ops),
		Events:   len(events),
		Timeouts: timeouts,
	}
	// The single session says BYE before the link counters are read (its
	// teardown round trip has always been part of its "link blocks sent");
	// the cluster's are read first, because a BYE to a killed node is
	// dropped and waits out a wall-clock retry.
	if cc == nil {
		conns[0].Close()
	}
	ls := links()
	rep.Links = edm.LinkStats{Sent: ls.Delivered, Dropped: ls.Dropped, Corrupted: ls.Corrupted}
	if cc != nil {
		cc.Close()
		rep.Cluster = &ClusterReport{
			MemNodes:    spec.Nodes,
			Extents:     cc.Map().Extents(),
			ExtentBytes: cc.ExtentBytes(),
			FinalEpoch:  cc.Epoch(),
			Failovers:   failovers[len(ops)],
			Rebalances:  md.rebalances,
			MovedBytes:  md.movedBytes,
			LostExtents: md.lostExt,
			Owed:        cc.Metrics().RemirrorsOwed.Load(),
			RecoveryUS:  stats.Summarize(md.recoveryUS),
		}
	}

	// Fault exposure, for the failover/corrupt counters and the recovery
	// summary. The single-node backend reads it off the fault windows of the
	// op's endpoints, with the fabric backend's definitions; on the cluster
	// the op's memory nodes are the router's choice, so an op counts as a
	// failover when the router says it was one.
	corrupt := probWindows(events, CorruptBurst)
	rep.tally(spec, bounds, tagged, func(i int) opOutcome {
		o := opOutcome{completed: results[i].Err == nil, latency: results[i].Latency, recovery: results[i].Latency}
		if errors.Is(results[i].Err, rmem.ErrMismatch) {
			rep.Mismatched++
		}
		if cc != nil {
			o.outage = failovers[i+1] > failovers[i]
		} else {
			o.outage, o.corrupted = exposure(&ops[i], fs.down, corrupt, spec.DetectDelay)
		}
		return o
	})
	for i := range rep.Phases {
		rep.Phases[i].Wire = &deltas[i]
	}
	return rep, nil
}
