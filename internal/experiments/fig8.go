package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig8Config scales the §4.3 simulations. The paper uses 144 nodes at
// 100 Gbps; OpsPerRun trades precision for runtime.
type Fig8Config struct {
	Nodes     int
	Bandwidth sim.Gbps
	OpsPerRun int
	Seed      uint64
}

func (c Fig8Config) netCfg() netsim.Config {
	return netsim.Config{Nodes: c.Nodes, Bandwidth: c.Bandwidth}
}

// Fig8aRow is one (protocol, load) point of Figure 8a: mean normalized
// latency for reads and writes separately.
type Fig8aRow struct {
	Proto      string
	Load       float64
	ReadsNorm  float64
	WritesNorm float64
}

// Fig8a sweeps network load for all seven protocols on the 64 B
// microbenchmark (8 B RREQ, equal read/write mix).
func Fig8a(cfg Fig8Config, loads []float64) ([]Fig8aRow, error) {
	if len(loads) == 0 {
		loads = []float64{0.2, 0.4, 0.6, 0.8, 0.9}
	}
	var rows []Fig8aRow
	for _, load := range loads {
		ops, err := workload.Generate(workload.GenConfig{
			Nodes: cfg.Nodes, Load: load, Bandwidth: cfg.Bandwidth,
			Sizes: workload.Fixed(64), ReadFrac: 0.5,
			Count: cfg.OpsPerRun, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range netsim.Protocols() {
			res, err := netsim.RunNormalized(p, cfg.netCfg(), ops)
			if err != nil {
				return nil, fmt.Errorf("fig8a %s load %.1f: %w", p.Name(), load, err)
			}
			rows = append(rows, Fig8aRow{
				Proto:      p.Name(),
				Load:       load,
				ReadsNorm:  res.NormalizedSummary(netsim.Reads).Mean,
				WritesNorm: res.NormalizedSummary(netsim.Writes).Mean,
			})
		}
	}
	return rows, nil
}

// Fig8aMixRow is one (protocol, write:read mix) point at load 0.8.
type Fig8aMixRow struct {
	Proto     string
	WriteFrac float64
	Norm      float64
}

// Fig8aMix sweeps the write:read mixture at a fixed load of 0.8
// (the paper's 100:0 / 80:20 / 50:50 / 20:80 / 0:100 groups).
func Fig8aMix(cfg Fig8Config, writeFracs []float64) ([]Fig8aMixRow, error) {
	if len(writeFracs) == 0 {
		writeFracs = []float64{1.0, 0.8, 0.5, 0.2, 0.0}
	}
	var rows []Fig8aMixRow
	for _, wf := range writeFracs {
		ops, err := workload.Generate(workload.GenConfig{
			Nodes: cfg.Nodes, Load: 0.8, Bandwidth: cfg.Bandwidth,
			Sizes: workload.Fixed(64), ReadFrac: 1 - wf,
			Count: cfg.OpsPerRun, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range netsim.Protocols() {
			res, err := netsim.RunNormalized(p, cfg.netCfg(), ops)
			if err != nil {
				return nil, fmt.Errorf("fig8a-mix %s wf %.1f: %w", p.Name(), wf, err)
			}
			rows = append(rows, Fig8aMixRow{
				Proto:     p.Name(),
				WriteFrac: wf,
				Norm:      res.NormalizedSummary(nil).Mean,
			})
		}
	}
	return rows, nil
}

// Fig8bRow is one (application, protocol) bar of Figure 8b: mean message
// completion time normalized by the ideal, plus the absolute mean MCT
// (normalized ratios penalize protocols with small unloaded latency — EDM
// above all — so the absolute column carries the direct comparison).
type Fig8bRow struct {
	App       string
	Proto     string
	NormMCT   float64
	AbsMeanNs float64
}

// Fig8b replays the disaggregated-application traces (heavy-tailed size
// CDFs, equal read/write mix, load 0.8) through every protocol.
func Fig8b(cfg Fig8Config) ([]Fig8bRow, error) {
	var rows []Fig8bRow
	for _, app := range workload.AppProfiles() {
		ops, err := workload.Generate(workload.GenConfig{
			Nodes: cfg.Nodes, Load: 0.8, Bandwidth: cfg.Bandwidth,
			Sizes: app, ReadFrac: 0.5,
			Count: cfg.OpsPerRun, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range netsim.Protocols() {
			res, err := netsim.RunNormalized(p, cfg.netCfg(), ops)
			if err != nil {
				return nil, fmt.Errorf("fig8b %s/%s: %w", app.Name(), p.Name(), err)
			}
			var abs float64
			for _, o := range res.Ops {
				abs += float64(o.Latency)
			}
			if len(res.Ops) > 0 {
				abs /= float64(len(res.Ops)) * 1000
			}
			rows = append(rows, Fig8bRow{
				App:       app.Name(),
				Proto:     p.Name(),
				NormMCT:   res.NormalizedSummary(nil).Mean,
				AbsMeanNs: abs,
			})
		}
	}
	return rows, nil
}
