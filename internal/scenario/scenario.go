// Package scenario is a config-driven simulation runner that composes the
// repo's two evaluation layers — the block-level edm.Fabric testbed (up to
// edm.MaxPorts hosts) and the flow-level netsim protocol models (1000+
// nodes) — into named, reproducible scenarios: multi-phase load schedules
// with timed fault events (link disable/enable, corruption bursts, node
// join/leave) and seeded chaos generation (random link flaps, corruption
// bursts), reported with per-phase latency percentiles, drop/corruption
// counters and failover recovery times.
//
// All randomness flows through one workload.Partition rooted at Spec.Seed:
// the arrival processes, size samplers, chaos engine and per-node streams
// each draw from an isolated deterministic stream, so the same seed yields
// byte-identical reports even as individual subsystems evolve.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Backend selects the simulation layer a scenario runs on.
type Backend string

const (
	// BackendNetsim runs on the flow-level protocol models of
	// internal/netsim: scales past 1000 nodes, faults are applied as a
	// deterministic trace transformation (§4.3-style evaluation).
	BackendNetsim Backend = "netsim"
	// BackendFabric runs on the block-level edm.Fabric testbed: faults are
	// injected into the live links (Disable, CorruptOneIn, DropOneIn), the
	// §3.3 fault-handling path end to end. Limited to edm.MaxPorts hosts.
	BackendFabric Backend = "fabric"
	// BackendLive runs the real service code path — the wire protocol's
	// reliable layer and an rmem memory node — over the in-process loopback
	// transport, replayed closed-loop on its virtual clock. Faults map to
	// datagram drops/corruptions recovered by retransmission. Reports are
	// deterministic functions of the spec, like the other backends.
	BackendLive Backend = "live"
	// BackendLiveCluster runs the dual-homed cluster service: Nodes rmem
	// memory nodes, each behind its own loopback transport, all charging one
	// shared virtual clock, fronted by a cluster.Client that stripes the
	// address space by extent. Fault events target memory nodes: NodeLeave
	// kills a node's transport for good (failover + epoch advance +
	// re-mirroring after DetectDelay), NodeJoin brings one in, and the
	// window events darken or degrade one node's link. Reports stay
	// deterministic functions of the spec.
	BackendLiveCluster Backend = "live-cluster"
)

// FailoverPolicy is what happens to flow-level ops that hit a dead link.
type FailoverPolicy string

const (
	// Failover defers the op to the outage's end plus DetectDelay — the
	// dual-ToR §3.3 behaviour where the survivor plane carries the op after
	// the loser's copy times out.
	Failover FailoverPolicy = "failover"
	// Drop discards the op and counts it.
	Drop FailoverPolicy = "drop"
)

// Phase is one segment of the load schedule. Phases run back to back; each
// generates Count ops at the given load and size profile.
type Phase struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	Load     float64 `json:"load"`
	ReadFrac float64 `json:"read_frac"`
	// Profile names a built-in size distribution: fixed64, hadoop, spark,
	// sparksql, graphlab or memcached.
	Profile string `json:"profile"`
}

// EventKind is a timed fault event type.
type EventKind string

const (
	// LinkDown disables node's link over [At, Until) (Fabric.DisableLink).
	LinkDown EventKind = "link-down"
	// CorruptBurst injects corruption on node's link over [At, Until):
	// OneIn on the fabric backend, per-op probability Prob on netsim.
	CorruptBurst EventKind = "corrupt"
	// DropBurst makes node's link lossy over [At, Until): OneIn blocks
	// dropped on the fabric backend, per-op probability Prob on netsim.
	DropBurst EventKind = "drop"
	// NodeLeave removes node at At: its link goes down for good and its
	// pending flow-level ops are dropped.
	NodeLeave EventKind = "leave"
	// NodeJoin brings node up at At: its link is down before At and
	// flow-level ops involving it before At are dropped.
	NodeJoin EventKind = "join"
)

// The injection rates of a corrupt or drop window that its spec leaves
// unset: Validate fills them into Event.OneIn and Prob, and into
// Chaos.CorruptOneIn and CorruptProb.
const (
	defaultOneIn uint64 = 64   // fabric and live backends: 1 block or datagram in 64
	defaultProb         = 0.25 // netsim backend: per-op probability
)

// Event is one timed fault.
type Event struct {
	Kind  EventKind `json:"kind"`
	Node  int       `json:"node"`
	At    sim.Time  `json:"at"`
	Until sim.Time  `json:"until,omitempty"`
	// OneIn is the fabric-backend injection rate (1-in-N blocks); 0 means
	// defaultOneIn (64). A zero-rate window cannot be expressed — delete
	// the event instead.
	OneIn uint64 `json:"one_in,omitempty"`
	// Prob is the netsim-backend per-op hit probability; 0 means
	// defaultProb (0.25). A zero-rate window cannot be expressed — delete
	// the event instead.
	Prob float64 `json:"prob,omitempty"`
}

// Chaos seeds randomized fault generation on top of the authored Events.
// All draws come from the partition's "chaos" stream, so a chaos schedule
// is a pure function of (Spec.Seed, Chaos, Nodes, horizon).
type Chaos struct {
	// LinkFlaps is the number of random link-down windows to inject.
	LinkFlaps int `json:"link_flaps"`
	// FlapMin/FlapMax bound each flap's duration.
	FlapMin sim.Time `json:"flap_min"`
	FlapMax sim.Time `json:"flap_max"`
	// CorruptBursts is the number of random corruption windows.
	CorruptBursts int `json:"corrupt_bursts"`
	// BurstMin/BurstMax bound each burst's duration.
	BurstMin sim.Time `json:"burst_min"`
	BurstMax sim.Time `json:"burst_max"`
	// CorruptOneIn is the fabric-backend burst rate; 0 means defaultOneIn
	// (64).
	CorruptOneIn uint64 `json:"corrupt_one_in"`
	// CorruptProb is the netsim-backend per-op corruption probability
	// inside a burst; 0 means defaultProb (0.25).
	CorruptProb float64 `json:"corrupt_prob"`
}

func (c Chaos) enabled() bool { return c.LinkFlaps > 0 || c.CorruptBursts > 0 }

// Spec is a complete scenario description. The zero value of optional
// fields is filled by Validate: netsim backend, 100 Gbps (25 Gbps on the
// other backends), EDM protocol, failover policy with 10 us detection
// delay.
type Spec struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Backend     Backend `json:"backend"`
	Nodes       int     `json:"nodes"`
	Seed        uint64  `json:"seed"`
	// Protocol picks the netsim protocol model (EDM, IRD, pFabric, PFC,
	// DCTCP, CXL, Fastpass). Ignored by the fabric backend, which always
	// runs the EDM block-level stack.
	Protocol  string   `json:"protocol,omitempty"`
	Bandwidth sim.Gbps `json:"bandwidth,omitempty"`
	Phases    []Phase  `json:"phases"`
	Events    []Event  `json:"events,omitempty"`
	Chaos     Chaos    `json:"chaos,omitempty"`
	// Policy and DetectDelay govern flow-level ops that hit a dead link.
	Policy      FailoverPolicy `json:"policy,omitempty"`
	DetectDelay sim.Time       `json:"detect_delay,omitempty"`
}

// Validate checks the spec and fills defaults in place.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Backend == "" {
		s.Backend = BackendNetsim
	}
	if s.Backend != BackendNetsim && s.Backend != BackendFabric &&
		s.Backend != BackendLive && s.Backend != BackendLiveCluster {
		return fmt.Errorf("scenario %s: unknown backend %q", s.Name, s.Backend)
	}
	if s.Nodes < 2 {
		return fmt.Errorf("scenario %s: nodes=%d", s.Name, s.Nodes)
	}
	if s.Protocol == "" {
		s.Protocol = "EDM"
	}
	if s.Bandwidth <= 0 {
		if s.Backend == BackendNetsim {
			s.Bandwidth = 100
		} else {
			s.Bandwidth = edm.LinkBandwidth
		}
	}
	// The block-level testbed clocks its hosts and switch at 25 GbE
	// (edm.BlockPeriod); another bandwidth would only reshape the trace.
	if s.Backend == BackendFabric && s.Bandwidth != edm.LinkBandwidth {
		return fmt.Errorf("scenario %s: bandwidth=%d, the fabric backend runs %d Gbps links", s.Name, s.Bandwidth, edm.LinkBandwidth)
	}
	if s.Policy == "" {
		s.Policy = Failover
	}
	if s.Policy != Failover && s.Policy != Drop {
		return fmt.Errorf("scenario %s: unknown policy %q", s.Name, s.Policy)
	}
	if s.DetectDelay <= 0 {
		s.DetectDelay = 10 * sim.Microsecond
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", s.Name)
	}
	for i, p := range s.Phases {
		if p.Count <= 0 {
			return fmt.Errorf("scenario %s: phase %d count=%d", s.Name, i, p.Count)
		}
		if p.Load <= 0 || p.Load > 1 {
			return fmt.Errorf("scenario %s: phase %d load=%f", s.Name, i, p.Load)
		}
		if p.ReadFrac < 0 || p.ReadFrac > 1 {
			return fmt.Errorf("scenario %s: phase %d read_frac=%f", s.Name, i, p.ReadFrac)
		}
		if _, err := workload.SizeDistByName(p.Profile); err != nil {
			return fmt.Errorf("scenario %s: phase %d: %w", s.Name, i, err)
		}
	}
	for i, e := range s.Events {
		if e.Node < 0 || e.Node >= s.Nodes {
			return fmt.Errorf("scenario %s: event %d node=%d of %d", s.Name, i, e.Node, s.Nodes)
		}
		switch e.Kind {
		case LinkDown, CorruptBurst, DropBurst:
			if e.Until <= e.At {
				return fmt.Errorf("scenario %s: event %d empty window", s.Name, i)
			}
			if e.Kind != LinkDown {
				if e.Prob < 0 || e.Prob > 1 {
					return fmt.Errorf("scenario %s: event %d prob=%f out of [0,1]", s.Name, i, e.Prob)
				}
				// Default both backends' injection rates (only when unset)
				// so a spec written for one backend means the same thing on
				// the other: OneIn drives the fabric links, Prob the
				// flow-level coin flips.
				if s.Events[i].OneIn == 0 {
					s.Events[i].OneIn = defaultOneIn
				}
				if e.Prob == 0 {
					s.Events[i].Prob = defaultProb
				}
			}
		case NodeLeave, NodeJoin:
		default:
			return fmt.Errorf("scenario %s: event %d kind %q", s.Name, i, e.Kind)
		}
	}
	ch := &s.Chaos
	if ch.LinkFlaps < 0 || ch.CorruptBursts < 0 {
		return fmt.Errorf("scenario %s: negative chaos counts", s.Name)
	}
	if ch.LinkFlaps > 0 {
		if ch.FlapMin <= 0 {
			ch.FlapMin = 20 * sim.Microsecond
		}
		if ch.FlapMax < ch.FlapMin {
			ch.FlapMax = 4 * ch.FlapMin
		}
	}
	if ch.CorruptProb < 0 || ch.CorruptProb > 1 {
		return fmt.Errorf("scenario %s: chaos corrupt_prob=%f out of [0,1]", s.Name, ch.CorruptProb)
	}
	if ch.CorruptBursts > 0 {
		if ch.BurstMin <= 0 {
			ch.BurstMin = 10 * sim.Microsecond
		}
		if ch.BurstMax < ch.BurstMin {
			ch.BurstMax = 4 * ch.BurstMin
		}
		if ch.CorruptOneIn == 0 {
			ch.CorruptOneIn = defaultOneIn
		}
		if ch.CorruptProb == 0 {
			ch.CorruptProb = defaultProb
		}
	}
	return nil
}

// Load parses a JSON scenario spec.
func Load(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Builtin returns the named built-in scenario, or nil.
func Builtin(name string) *Spec {
	for _, s := range Builtins() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Builtins returns the built-in scenario library, sorted by name. Each call
// returns fresh copies safe to mutate.
func Builtins() []*Spec {
	specs := []*Spec{
		{
			Name:        "chaos-1024",
			Description: "1024-node fleet under phase-shifted load with random link flaps and corruption bursts (flow level)",
			Backend:     BackendNetsim,
			Nodes:       1024,
			Seed:        1,
			Protocol:    "EDM",
			Phases: []Phase{
				{Name: "warm", Count: 3000, Load: 0.3, ReadFrac: 0.5, Profile: "fixed64"},
				{Name: "peak", Count: 5000, Load: 0.8, ReadFrac: 0.5, Profile: "memcached"},
				{Name: "drain", Count: 3000, Load: 0.5, ReadFrac: 0.9, Profile: "fixed64"},
			},
			Chaos: Chaos{LinkFlaps: 12, CorruptBursts: 6},
		},
		{
			Name:        "protocol-storm",
			Description: "144-node heavy-tailed storm for §4.3 protocol comparison under chaos (flow level)",
			Backend:     BackendNetsim,
			Nodes:       144,
			Seed:        1,
			Protocol:    "EDM",
			Phases: []Phase{
				{Name: "ramp", Count: 4000, Load: 0.4, ReadFrac: 0.5, Profile: "memcached"},
				{Name: "storm", Count: 6000, Load: 0.9, ReadFrac: 0.5, Profile: "sparksql"},
			},
			Chaos: Chaos{LinkFlaps: 6, CorruptBursts: 3},
		},
		{
			Name:        "failover-16",
			Description: "16-host block-level testbed: a mid-run link outage and a corruption burst exercise the §3.3 fault path",
			Backend:     BackendFabric,
			Nodes:       16,
			Seed:        1,
			Phases: []Phase{
				// 300 ops/node at load 0.3 spans ~20 us, so the fault
				// windows below sit mid-trace.
				{Name: "steady", Count: 4800, Load: 0.3, ReadFrac: 0.5, Profile: "fixed64"},
			},
			Events: []Event{
				{Kind: LinkDown, Node: 3, At: 5 * sim.Microsecond, Until: 12 * sim.Microsecond},
				{Kind: CorruptBurst, Node: 7, At: 6 * sim.Microsecond, Until: 10 * sim.Microsecond, OneIn: 32},
			},
		},
		{
			Name:        "live-loopback",
			Description: "8-node trace replayed through the real wire/rmem service over the loopback transport, with a drop burst and a corruption burst recovered by retransmission",
			Backend:     BackendLive,
			Nodes:       8,
			Seed:        1,
			Phases: []Phase{
				// ~150 ops/node at load 0.3 spans ~10 us of virtual time,
				// so the burst windows below sit mid-trace.
				{Name: "steady", Count: 1200, Load: 0.3, ReadFrac: 0.5, Profile: "fixed64"},
			},
			Events: []Event{
				{Kind: DropBurst, Node: 2, At: 3 * sim.Microsecond, Until: 5 * sim.Microsecond, OneIn: 4},
				{Kind: CorruptBurst, Node: 5, At: 6 * sim.Microsecond, Until: 8 * sim.Microsecond, OneIn: 4},
			},
		},
		{
			Name:        "live-cluster",
			Description: "16-node dual-homed cluster over loopback transports sharing one virtual clock; a mid-run node kill exercises read failover, write-through, and extent re-mirroring",
			Backend:     BackendLiveCluster,
			Nodes:       16,
			Seed:        1,
			// Short detection keeps the failover window (where every op
			// touching the dead node burns a real retry budget) a bounded
			// slice of the trace.
			DetectDelay: 2 * sim.Microsecond,
			Phases: []Phase{
				// ~150 ops/node at load 0.3 spans ~10 us of virtual time,
				// so the kill below lands mid-trace with the recovery
				// inside the run.
				{Name: "steady", Count: 2400, Load: 0.3, ReadFrac: 0.5, Profile: "fixed64"},
			},
			Events: []Event{
				{Kind: NodeLeave, Node: 5, At: 5 * sim.Microsecond},
			},
		},
		{
			Name:        "live-cluster-flaps",
			Description: "8-node dual-homed cluster whose memory nodes' links flap: a replica that misses an acked write is evicted, re-mirrored, and rejoined once its link is back",
			Backend:     BackendLiveCluster,
			Nodes:       8,
			Seed:        4,
			Phases: []Phase{
				{Name: "steady", Count: 1200, Load: 0.3, ReadFrac: 0.5, Profile: "fixed64"},
			},
			Chaos: Chaos{LinkFlaps: 8},
		},
		{
			Name:        "corruption-soak",
			Description: "8-host block-level soak with seeded random corruption bursts on live links",
			Backend:     BackendFabric,
			Nodes:       8,
			Seed:        1,
			Phases: []Phase{
				{Name: "soak", Count: 2400, Load: 0.5, ReadFrac: 0.5, Profile: "fixed64"},
			},
			Chaos: Chaos{CorruptBursts: 4, CorruptOneIn: 48,
				BurstMin: 2 * sim.Microsecond, BurstMax: 4 * sim.Microsecond},
		},
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}
