package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/edm"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AblationRow is one point of a design-choice sweep.
type AblationRow struct {
	Param string
	Value string
	Norm  float64 // mean normalized latency / MCT
}

// ablation is one design-choice sweep: the same seeded trace replayed
// through netsim's EDM model at each step.
type ablation struct {
	param string
	sizes workload.SizeDist
	load  float64
	steps []ablationStep
}

type ablationStep struct {
	label string
	edm   netsim.EDM
}

// ablations is every sweep Ablations runs, in presentation order.
var ablations = []ablation{
	// The scheduler chunk size c: §3.1.3 sets its floor at the matching
	// latency; §4.3 uses 256 B.
	{"chunk", workload.Hadoop(), 0.8, []ablationStep{
		{"64B", netsim.EDM{ChunkBytes: 64}},
		{"128B", netsim.EDM{ChunkBytes: 128}},
		{"256B", netsim.EDM{ChunkBytes: 256}},
		{"512B", netsim.EDM{ChunkBytes: 512}},
		{"1024B", netsim.EDM{ChunkBytes: 1024}},
	}},
	// X, the active notifications allowed per pair (§3.1.2: "we
	// empirically find that the value of X=3 works best").
	{"X", workload.Fixed(64), 0.8, []ablationStep{
		{"1", netsim.EDM{X: 1}},
		{"2", netsim.EDM{X: 2}},
		{"3", netsim.EDM{X: 3}},
		{"8", netsim.EDM{X: 8}},
	}},
	// FCFS against SRPT on a heavy-tailed workload, where the paper argues
	// SRPT is near-optimal (§3.1.1 property 4).
	{"policy", workload.Hadoop(), 0.8, []ablationStep{
		{sched.FCFS.String(), netsim.EDM{Policy: sched.FCFS}},
		{sched.SRPT.String(), netsim.EDM{Policy: sched.SRPT}},
	}},
	// PIM iterations per matching round: 1 is classic single-round PIM;
	// 0 iterates to a maximal matching, as EDM does.
	{"pim-iterations", workload.Fixed(64), 0.8, []ablationStep{
		{"1", netsim.EDM{MaxIterations: 1}},
		{"2", netsim.EDM{MaxIterations: 2}},
		{"4", netsim.EDM{MaxIterations: 4}},
		{"maximal", netsim.EDM{MaxIterations: 0}},
	}},
	// §3.1.2's mega-message batching on a small-message-heavy workload
	// (the Memcached profile) at high load.
	{"batch", workload.Memcached(), 0.9, []ablationStep{
		{"off", netsim.EDM{BatchBytes: 0}},
		{"1024B", netsim.EDM{BatchBytes: 1024}},
		{"4096B", netsim.EDM{BatchBytes: 4096}},
	}},
}

// Ablations runs every EDM design-choice sweep at cfg's scale.
func Ablations(cfg Fig8Config) ([]AblationRow, error) {
	var rows []AblationRow
	for _, a := range ablations {
		r, err := a.run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func (a ablation) run(cfg Fig8Config) ([]AblationRow, error) {
	ops, err := cfg.trace(a.sizes, a.load, 0.5)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, st := range a.steps {
		res, err := netsim.RunNormalized(&st.edm, cfg.netCfg(), ops)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", a.param, st.label, err)
		}
		rows = append(rows, AblationRow{Param: a.param, Value: st.label,
			Norm: res.NormalizedSummary(nil).Mean})
	}
	return rows, nil
}

// PreemptionResult compares memory-message latency with and without
// intra-frame preemption while a host streams MTU frames (§3.2.3 and §2.4
// limitation 3) on the block-level testbed.
type PreemptionResult struct {
	Policy     string
	MeanReadNs float64
	MaxReadNs  float64
}

// preemptionReads is how many reads AblationPreemption times per policy.
const preemptionReads = 20

// AblationPreemption measures 64 B reads issued while the compute node
// concurrently transmits 1500 B frames, under the fair (preempting) mux and
// the frame-first (MAC-like, non-preempting) mux.
func AblationPreemption() ([]PreemptionResult, error) {
	var out []PreemptionResult
	for _, pol := range []struct {
		name string
		mux  phy.MuxPolicy
	}{{"preempting (fair)", phy.PolicyFair}, {"no preemption (frame first)", phy.PolicyFrameFirst}} {
		cfg := edm.DefaultConfig(2)
		cfg.MuxPolicy = pol.mux
		f := edm.New(cfg)
		f.AttachMemory(1, zeroLatencyMemory())
		if _, err := f.Host(1).Memory().Write(0, bytes.Repeat([]byte{1}, 64)); err != nil {
			return nil, err
		}
		frame := make([]byte, 1500)
		var sum, max float64
		for i := 0; i < preemptionReads; i++ {
			// Keep the frame pipe full: enqueue a fresh MTU frame right
			// before each read.
			f.Host(0).SendFrame(frame)
			f.Host(0).SendFrame(frame)
			_, lat, err := f.ReadSync(0, 1, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("preemption %s read %d: %w", pol.name, i, err)
			}
			ns := lat.Nanoseconds()
			sum += ns
			if ns > max {
				max = ns
			}
		}
		out = append(out, PreemptionResult{
			Policy:     pol.name,
			MeanReadNs: sum / preemptionReads,
			MaxReadNs:  max,
		})
	}
	return out, nil
}

// IncastResult is the bonus experiment: an N-to-1 incast of 64 B writes,
// demonstrating limitation 6 (reactive protocols queue; EDM schedules).
type IncastResult struct {
	Proto    string
	MeanNorm float64
	P99Norm  float64
}

// Incast runs an n-to-1 burst through the EDM, DCTCP and CXL models at
// §4.3's line rate.
func Incast(senders, opsEach int) ([]IncastResult, error) {
	if senders <= 0 {
		senders = 16
	}
	if opsEach <= 0 {
		opsEach = 50
	}
	var ops []workload.Op
	idx := 0
	for s := 1; s <= senders; s++ {
		for k := 0; k < opsEach; k++ {
			ops = append(ops, workload.Op{
				Index: idx, Src: s, Dst: 0, Size: 64, Read: false,
				Arrival: sim.Time(k) * 100 * sim.Nanosecond, // synchronized bursts
			})
			idx++
		}
	}
	var out []IncastResult
	for _, p := range []netsim.Protocol{&netsim.EDM{}, netsim.DCTCP{}, netsim.CXL{}} {
		res, err := netsim.RunNormalized(p, netsim.Config{Nodes: senders + 1, Bandwidth: fig8Bandwidth}, ops)
		if err != nil {
			return nil, fmt.Errorf("incast %s: %w", p.Name(), err)
		}
		s := res.NormalizedSummary(nil)
		out = append(out, IncastResult{Proto: p.Name(), MeanNorm: s.Mean, P99Norm: s.P99})
	}
	return out, nil
}
