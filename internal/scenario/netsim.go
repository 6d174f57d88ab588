package scenario

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Run executes the scenario and returns its report. The report is a
// deterministic function of the (validated) spec: equal specs produce
// byte-identical Format output.
func Run(spec *Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Backend {
	case BackendFabric:
		return runFabric(spec)
	case BackendLive, BackendLiveCluster:
		return runLive(spec)
	default:
		return runNetsim(spec)
	}
}

// opMeta carries per-op scenario state through generation, fault
// transformation and the protocol run.
type opMeta struct {
	phase    int
	corrupt  bool
	failover bool
	dropped  bool
	recovery sim.Time // failover deferral (intended arrival -> actual issue)
}

type taggedOp struct {
	op   workload.Op
	meta opMeta
}

// prologue is every backend's seeded start. It generates the phase-shifted
// load schedule: each phase's ops come from an isolated sub-partition and
// are offset to start where the previous phase's arrival window ends. It
// returns the partition, the tagged ops sorted by arrival, the per-phase
// arrival windows, the trace horizon, and the spec's events merged with its
// chaos expanded over its nodes, in replay order. The partition's stream
// names ("phase/N", "chaos") fix every seeded report.
func prologue(spec *Spec) (part *workload.Partition, tagged []taggedOp, bounds []interval, horizon sim.Time, events []Event, err error) {
	part = workload.NewPartition(spec.Seed)
	bounds = make([]interval, len(spec.Phases))
	for i, ph := range spec.Phases {
		dist, err := workload.SizeDistByName(ph.Profile)
		if err != nil {
			return nil, nil, nil, 0, nil, err
		}
		ops, err := workload.GeneratePartitioned(part.Sub(fmt.Sprintf("phase/%d", i)), workload.GenConfig{
			Nodes: spec.Nodes, Load: ph.Load, Bandwidth: spec.Bandwidth,
			Sizes: dist, ReadFrac: ph.ReadFrac, Count: ph.Count,
		})
		if err != nil {
			return nil, nil, nil, 0, nil, err
		}
		var span sim.Time
		for _, op := range ops {
			if op.Arrival > span {
				span = op.Arrival
			}
		}
		for _, op := range ops {
			op.Arrival += horizon
			tagged = append(tagged, taggedOp{op: op, meta: opMeta{phase: i}})
		}
		bounds[i] = interval{horizon, horizon + span + 1}
		horizon += span + 1
	}
	sortTagged(tagged)
	events = append(append([]Event(nil), spec.Events...),
		expandChaos(part.Sub("chaos"), spec.Chaos, spec.Nodes, horizon)...)
	sortEvents(events)
	return part, tagged, bounds, horizon, events, nil
}

func sortTagged(tagged []taggedOp) {
	sort.Slice(tagged, func(i, j int) bool {
		a, b := tagged[i].op, tagged[j].op
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}

// probWindow is a fault window with a per-op hit probability (flow level).
type probWindow struct {
	interval
	prob float64
}

func probWindows(events []Event, kind EventKind) map[int][]probWindow {
	m := map[int][]probWindow{}
	for _, e := range events {
		if e.Kind != kind {
			continue
		}
		m[e.Node] = append(m[e.Node], probWindow{interval{e.At, e.Until}, e.Prob})
	}
	return m
}

func coveringProb(m map[int][]probWindow, node int, t sim.Time) (float64, bool) {
	for _, w := range m[node] {
		if t >= w.start && t < w.end {
			return w.prob, true
		}
	}
	return 0, false
}

// applyFaults transforms the trace per the fault timeline, flow-level
// semantics:
//
//   - An op whose src or dst link is flapped down at its arrival is
//     deferred to the outage's end plus DetectDelay (policy Failover, the
//     §3.3 dual-ToR behaviour: the survivor plane carries it once the loss
//     is detected) or discarded (policy Drop). Ops touching an absent node
//     (departed, or not yet joined) are always discarded — there is no
//     survivor plane for a node that is not there.
//   - An op inside a corruption window covering its src or dst is hit with
//     the window's probability; a hit costs one full retransmission (its
//     measured latency is doubled after the protocol run).
//   - An op inside a drop window is discarded with the window's probability.
//
// Every probabilistic choice draws from the partition's "fault-coins"
// stream in arrival order, so the transformation is deterministic.
func applyFaults(part *workload.Partition, spec *Spec, tagged []taggedOp, events []Event) {
	flaps, absent := outageWindows(events)
	corrupt := probWindows(events, CorruptBurst)
	lossy := probWindows(events, DropBurst)
	coins := part.Stream("fault-coins")
	for i := range tagged {
		t := &tagged[i]
		arr := t.op.Arrival
		for hop := 0; hop < 16; hop++ {
			if _, gone := covering(absent[t.op.Src], arr); gone {
				t.meta.dropped = true
				break
			}
			if _, gone := covering(absent[t.op.Dst], arr); gone {
				t.meta.dropped = true
				break
			}
			w, ok := covering(flaps[t.op.Src], arr)
			if !ok {
				w, ok = covering(flaps[t.op.Dst], arr)
			}
			if !ok {
				break
			}
			if spec.Policy == Drop {
				t.meta.dropped = true
				break
			}
			arr = w.end + spec.DetectDelay
		}
		if t.meta.dropped {
			continue
		}
		if arr != t.op.Arrival {
			t.meta.failover = true
			t.meta.recovery = arr - t.op.Arrival
			t.op.Arrival = arr
		}
		if p, ok := coveringProb(lossy, t.op.Src, arr); ok {
			if coins.Float64() < p {
				t.meta.dropped = true
				continue
			}
		} else if p, ok := coveringProb(lossy, t.op.Dst, arr); ok {
			if coins.Float64() < p {
				t.meta.dropped = true
				continue
			}
		}
		if p, ok := coveringProb(corrupt, t.op.Src, arr); ok {
			t.meta.corrupt = coins.Float64() < p
		} else if p, ok := coveringProb(corrupt, t.op.Dst, arr); ok {
			t.meta.corrupt = coins.Float64() < p
		}
	}
}

// liveOps drops discarded ops, re-sorts the rest (failover moved arrivals)
// and indexes each by its place in ops; at[i] is tagged op i's place (0 for
// a discarded op).
func liveOps(tagged []taggedOp) (ops []workload.Op, at []int) {
	live := tagged[:0:0]
	for i, t := range tagged {
		if !t.meta.dropped {
			t.op.Index = i
			live = append(live, t)
		}
	}
	sortTagged(live)
	ops = make([]workload.Op, len(live))
	at = make([]int, len(tagged))
	for i, t := range live {
		at[t.op.Index] = i
		t.op.Index = i
		ops[i] = t.op
	}
	return ops, at
}

func runNetsim(spec *Spec) (*Report, error) {
	proto := netsim.ProtocolByName(spec.Protocol)
	if proto == nil {
		return nil, fmt.Errorf("scenario %s: unknown protocol %q", spec.Name, spec.Protocol)
	}
	part, tagged, bounds, _, events, err := prologue(spec)
	if err != nil {
		return nil, err
	}
	applyFaults(part, spec, tagged, events)
	ops, at := liveOps(tagged)
	if len(ops) == 0 {
		return nil, fmt.Errorf("scenario %s: every op was dropped", spec.Name)
	}

	cfg := netsim.Config{Nodes: spec.Nodes, Bandwidth: spec.Bandwidth}
	res, err := netsim.RunNormalized(proto, cfg, ops)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	byOp := make([]netsim.OpResult, len(ops))
	for _, o := range res.Ops {
		byOp[o.Op.Index] = o
	}
	// Report phase windows in the same timebase as Horizon: RunNormalized
	// stretches arrivals by the protocol's wire inflation, so the trace-
	// timebase bounds are mapped through the same ratio.
	wire, data := netsim.ArrivalScale(proto, ops)
	for i, b := range bounds {
		bounds[i] = interval{netsim.ScaleArrival(b.start, wire, data), netsim.ScaleArrival(b.end, wire, data)}
	}

	rep := &Report{
		Scenario: spec.Name, Backend: spec.Backend, Protocol: proto.Name(),
		Nodes: spec.Nodes, Seed: spec.Seed,
		Horizon: res.Horizon, Issued: len(tagged), Events: len(events),
	}
	rep.tally(spec, bounds, tagged, func(i int) opOutcome {
		m := tagged[i].meta
		if m.dropped {
			return opOutcome{}
		}
		r := byOp[at[i]]
		// Corruption penalty: detection happens only once the full message
		// has arrived, and the retransmission traverses the same loaded
		// path — one hit doubles the op's completion latency.
		if m.corrupt {
			r.Latency *= 2
		}
		o := opOutcome{completed: true, latency: r.Latency, recovery: m.recovery,
			outage: m.failover, corrupted: m.corrupt}
		if r.Ideal > 0 {
			o.norm = float64(r.Latency) / float64(r.Ideal)
		}
		return o
	})
	return rep, nil
}
