package scenario

import (
	"fmt"

	"repro/internal/edm"
	"repro/internal/memctl"
	"repro/internal/workload"
)

// maxFabricMsg caps op sizes on the block-level backend: the EDM message
// header carries a 16-bit length, so heavy-tailed profile samples are
// clamped here (the flow-level backend carries them unclamped).
const maxFabricMsg = 32 * 1024

// place readies the trace for the block-level and live backends: each op
// with its size clamped to maxFabricMsg, so runs of one spec on either stay
// comparable, at a 64 B-aligned address in [0, space-maxFabricMsg) drawn
// from the partition's addr stream.
func place(part *workload.Partition, tagged []taggedOp, space uint64) ([]workload.Op, []uint64) {
	ops := make([]workload.Op, len(tagged))
	addrs := make([]uint64, len(tagged))
	stream := part.Stream("addr")
	for i, t := range tagged {
		ops[i] = t.op
		ops[i].Size = min(ops[i].Size, maxFabricMsg)
		addrs[i] = (stream.Uint64() % (space - maxFabricMsg)) &^ 63
	}
	return ops, addrs
}

// runFabric executes the scenario on the block-level edm.Fabric testbed.
// Faults are injected into the live links at their scheduled times — reads
// caught in an outage take the §3.3 NULL-response timeout path, corrupted
// blocks are detected (and the op retried or failed) by the receiver's
// decode path, and one-sided writes lost to a dead link surface as
// never-completed ops in the report.
func runFabric(spec *Spec) (*Report, error) {
	if spec.Nodes > edm.MaxPorts {
		return nil, fmt.Errorf("scenario %s: %d nodes exceeds the fabric backend's %d ports (use backend %q)",
			spec.Name, spec.Nodes, edm.MaxPorts, BackendNetsim)
	}
	part, tagged, bounds, _, events, err := prologue(spec)
	if err != nil {
		return nil, err
	}

	fabric := edm.New(edm.DefaultConfig(spec.Nodes))
	memCfg := memctl.DefaultConfig()
	for i := 0; i < spec.Nodes; i++ {
		fabric.AttachMemory(i, memctl.New(memCfg))
	}
	engine := fabric.Engine

	// Outages: merged per-node windows drive DisableLink/EnableLink. At
	// block level flaps and absences are the same thing — the link is dark.
	down := darkWindows(events, spec.Nodes, true)
	for n := 0; n < spec.Nodes; n++ {
		for _, iv := range down[n] {
			n, iv := n, iv
			if iv.start <= 0 {
				fabric.DisableLink(n)
			} else {
				engine.At(iv.start, func() { fabric.DisableLink(n) })
			}
			if iv.end < forever {
				engine.At(iv.end, func() { fabric.EnableLink(n) })
			}
		}
	}
	// Corruption and loss bursts on the live links. Overlapping same-node
	// bursts nest: the rate is only cleared when the last active burst
	// ends (an earlier burst's end must not cancel a later one). With
	// overlapping bursts of different rates the most recently started
	// rate wins — a documented simplification.
	type burstDepth struct{ corrupt, drop int }
	depth := make([]burstDepth, spec.Nodes)
	for _, e := range events {
		e := e
		switch e.Kind {
		case CorruptBurst:
			engine.At(e.At, func() {
				depth[e.Node].corrupt++
				fabric.UpLink(e.Node).CorruptOneIn(e.OneIn)
				fabric.DownLink(e.Node).CorruptOneIn(e.OneIn)
			})
			engine.At(e.Until, func() {
				depth[e.Node].corrupt--
				if depth[e.Node].corrupt == 0 {
					fabric.UpLink(e.Node).CorruptOneIn(0)
					fabric.DownLink(e.Node).CorruptOneIn(0)
				}
			})
		case DropBurst:
			engine.At(e.At, func() {
				depth[e.Node].drop++
				fabric.UpLink(e.Node).DropOneIn(e.OneIn)
				fabric.DownLink(e.Node).DropOneIn(e.OneIn)
			})
			engine.At(e.Until, func() {
				depth[e.Node].drop--
				if depth[e.Node].drop == 0 {
					fabric.UpLink(e.Node).DropOneIn(0)
					fabric.DownLink(e.Node).DropOneIn(0)
				}
			})
		}
	}

	// Issue the trace; each op's callback records its outcome.
	outcomes := make([]opOutcome, len(tagged))
	ops, addrs := place(part, tagged, memCfg.Size)
	for i, op := range ops {
		engine.At(op.Arrival, func() {
			start := engine.Now()
			done := func(err error) {
				lat := engine.Now() - start
				outcomes[i] = opOutcome{completed: err == nil, latency: lat, recovery: lat}
			}
			if op.Read {
				fabric.Host(op.Src).Read(op.Dst, addrs[i], op.Size, func(_ []byte, err error) { done(err) })
			} else {
				fabric.Host(op.Src).Write(op.Dst, addrs[i], make([]byte, op.Size), done)
			}
		})
	}
	fabric.Run()

	rep := &Report{
		Scenario: spec.Name, Backend: spec.Backend, Protocol: "EDM",
		Nodes: spec.Nodes, Seed: spec.Seed,
		Horizon: engine.Now(), Issued: len(tagged),
		Events: len(events), Links: fabric.LinkStats(),
	}
	for i := 0; i < spec.Nodes; i++ {
		rep.Timeouts += fabric.Host(i).Stats().Timeouts
	}
	// Fault exposure is read off the windows of the op's src and dst.
	corrupt := probWindows(events, CorruptBurst)
	rep.tally(spec, bounds, tagged, func(i int) opOutcome {
		o := outcomes[i]
		o.outage, o.corrupted = exposure(&ops[i], down, corrupt, spec.DetectDelay)
		return o
	})
	return rep, nil
}
