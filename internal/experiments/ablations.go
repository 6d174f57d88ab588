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

func fig8aTrace(cfg Fig8Config, sizes workload.SizeDist, load float64) ([]workload.Op, error) {
	return workload.Generate(workload.GenConfig{
		Nodes: cfg.Nodes, Load: load, Bandwidth: cfg.Bandwidth,
		Sizes: sizes, ReadFrac: 0.5, Count: cfg.OpsPerRun, Seed: cfg.Seed,
	})
}

// AblationChunkSize sweeps the scheduler chunk size c (§3.1.3 sets the
// floor at the matching latency; §4.3 uses 256 B).
func AblationChunkSize(cfg Fig8Config) ([]AblationRow, error) {
	ops, err := fig8aTrace(cfg, workload.Hadoop(), 0.8)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, c := range []int{64, 128, 256, 512, 1024} {
		res, err := netsim.RunNormalized(&netsim.EDM{ChunkBytes: c}, cfg.netCfg(), ops)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", c, err)
		}
		rows = append(rows, AblationRow{
			Param: "chunk", Value: fmt.Sprintf("%dB", c),
			Norm: res.NormalizedSummary(nil).Mean,
		})
	}
	return rows, nil
}

// AblationNotifyCap sweeps X, the active notifications allowed per pair
// (§3.1.2: "we empirically find that the value of X=3 works best").
func AblationNotifyCap(cfg Fig8Config) ([]AblationRow, error) {
	ops, err := fig8aTrace(cfg, workload.Fixed(64), 0.8)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, x := range []int{1, 2, 3, 8} {
		res, err := netsim.RunNormalized(&netsim.EDM{X: x}, cfg.netCfg(), ops)
		if err != nil {
			return nil, fmt.Errorf("X=%d: %w", x, err)
		}
		rows = append(rows, AblationRow{
			Param: "X", Value: fmt.Sprintf("%d", x),
			Norm: res.NormalizedSummary(nil).Mean,
		})
	}
	return rows, nil
}

// AblationPolicy compares FCFS and SRPT on a heavy-tailed workload, where
// the paper argues SRPT is near-optimal (§3.1.1 property 4).
func AblationPolicy(cfg Fig8Config) ([]AblationRow, error) {
	ops, err := fig8aTrace(cfg, workload.Hadoop(), 0.8)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, p := range []sched.Policy{sched.FCFS, sched.SRPT} {
		res, err := netsim.RunNormalized(&netsim.EDM{Policy: p}, cfg.netCfg(), ops)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", p, err)
		}
		rows = append(rows, AblationRow{
			Param: "policy", Value: p.String(),
			Norm: res.NormalizedSummary(nil).Mean,
		})
	}
	return rows, nil
}

// AblationPIMIterations caps PIM iterations per matching round: 1 iteration
// is classic single-round PIM; 0 iterates to a maximal matching as EDM
// does.
func AblationPIMIterations(cfg Fig8Config) ([]AblationRow, error) {
	ops, err := fig8aTrace(cfg, workload.Fixed(64), 0.8)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, it := range []int{1, 2, 4, 0} {
		res, err := netsim.RunNormalized(&netsim.EDM{MaxIterations: it}, cfg.netCfg(), ops)
		if err != nil {
			return nil, fmt.Errorf("iters=%d: %w", it, err)
		}
		label := fmt.Sprintf("%d", it)
		if it == 0 {
			label = "maximal"
		}
		rows = append(rows, AblationRow{Param: "pim-iterations", Value: label,
			Norm: res.NormalizedSummary(nil).Mean})
	}
	return rows, nil
}

// AblationBatching compares the §3.1.2 mega-message batching on a
// small-message-heavy workload (Memcached profile) at high load.
func AblationBatching(cfg Fig8Config) ([]AblationRow, error) {
	ops, err := fig8aTrace(cfg, workload.Memcached(), 0.9)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, batch := range []int{0, 1024, 4096} {
		res, err := netsim.RunNormalized(&netsim.EDM{BatchBytes: batch}, cfg.netCfg(), ops)
		if err != nil {
			return nil, fmt.Errorf("batch=%d: %w", batch, err)
		}
		label := "off"
		if batch > 0 {
			label = fmt.Sprintf("%dB", batch)
		}
		rows = append(rows, AblationRow{Param: "batch", Value: label,
			Norm: res.NormalizedSummary(nil).Mean})
	}
	return rows, nil
}

// PreemptionResult compares memory-message latency with and without
// intra-frame preemption while a host streams MTU frames (§3.2.3 and §2.4
// limitation 3) on the block-level testbed.
type PreemptionResult struct {
	Policy       string
	MeanReadNs   float64
	MaxReadNs    float64
	MemBlocksTx  uint64
	FrameBlocksT uint64
}

// AblationPreemption measures 64 B reads issued while the compute node
// concurrently transmits 1500 B frames, under the fair (preempting) mux and
// the frame-first (MAC-like, non-preempting) mux.
func AblationPreemption(reads int) ([]PreemptionResult, error) {
	if reads <= 0 {
		reads = 20
	}
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
		for i := 0; i < reads; i++ {
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
		f.Run() // drain remaining frames
		hs := f.Host(0).Stats()
		out = append(out, PreemptionResult{
			Policy:       pol.name,
			MeanReadNs:   sum / float64(reads),
			MaxReadNs:    max,
			MemBlocksTx:  hs.MemBlocksTX,
			FrameBlocksT: hs.FrameBlocksTX,
		})
	}
	return out, nil
}

// IncastResult is the bonus experiment: an N-to-1 incast of 64 B reads,
// demonstrating limitation 6 (reactive protocols queue; EDM schedules).
type IncastResult struct {
	Proto    string
	MeanNorm float64
	P99Norm  float64
}

// Incast runs an n-to-1 burst through EDM and DCTCP models.
func Incast(cfg Fig8Config, senders, opsEach int) ([]IncastResult, error) {
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
		res, err := netsim.RunNormalized(p, netsim.Config{Nodes: senders + 1, Bandwidth: cfg.Bandwidth}, ops)
		if err != nil {
			return nil, fmt.Errorf("incast %s: %w", p.Name(), err)
		}
		s := res.NormalizedSummary(nil)
		out = append(out, IncastResult{Proto: p.Name(), MeanNorm: s.Mean, P99Norm: s.P99})
	}
	return out, nil
}
