package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig8Bandwidth is §4.3's line rate, which every Figure 8 simulation and
// the incast run at.
const fig8Bandwidth sim.Gbps = 100

// Fig8Config scales the §4.3 simulations. The paper uses 144 nodes;
// OpsPerRun trades precision for runtime.
type Fig8Config struct {
	Nodes     int
	OpsPerRun int
	Seed      uint64
}

// trace generates the seeded trace of one Figure 8 point.
func (c Fig8Config) trace(sizes workload.SizeDist, load, readFrac float64) ([]workload.Op, error) {
	return workload.Generate(workload.GenConfig{
		Nodes: c.Nodes, Load: load, Bandwidth: fig8Bandwidth,
		Sizes: sizes, ReadFrac: readFrac, Count: c.OpsPerRun, Seed: c.Seed,
	})
}

func (c Fig8Config) netCfg() netsim.Config {
	return netsim.Config{Nodes: c.Nodes, Bandwidth: fig8Bandwidth}
}

// everyProtocol replays ops through all seven protocols in presentation
// order and hands each result to row.
func (c Fig8Config) everyProtocol(ops []workload.Op, row func(proto string, res *netsim.Result)) error {
	for _, p := range netsim.Protocols() {
		res, err := netsim.RunNormalized(p, c.netCfg(), ops)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
		row(p.Name(), res)
	}
	return nil
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
func Fig8a(cfg Fig8Config) ([]Fig8aRow, error) {
	var rows []Fig8aRow
	for _, load := range []float64{0.2, 0.4, 0.6, 0.8, 0.9} {
		ops, err := cfg.trace(workload.Fixed(64), load, 0.5)
		if err != nil {
			return nil, err
		}
		err = cfg.everyProtocol(ops, func(proto string, res *netsim.Result) {
			rows = append(rows, Fig8aRow{
				Proto:      proto,
				Load:       load,
				ReadsNorm:  res.NormalizedSummary(netsim.Reads).Mean,
				WritesNorm: res.NormalizedSummary(netsim.Writes).Mean,
			})
		})
		if err != nil {
			return nil, fmt.Errorf("fig8a load %.1f: %w", load, err)
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
func Fig8aMix(cfg Fig8Config) ([]Fig8aMixRow, error) {
	var rows []Fig8aMixRow
	for _, wf := range []float64{1.0, 0.8, 0.5, 0.2, 0.0} {
		ops, err := cfg.trace(workload.Fixed(64), 0.8, 1-wf)
		if err != nil {
			return nil, err
		}
		err = cfg.everyProtocol(ops, func(proto string, res *netsim.Result) {
			rows = append(rows, Fig8aMixRow{
				Proto:     proto,
				WriteFrac: wf,
				Norm:      res.NormalizedSummary(nil).Mean,
			})
		})
		if err != nil {
			return nil, fmt.Errorf("fig8a-mix wf %.1f: %w", wf, err)
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
		ops, err := cfg.trace(app, 0.8, 0.5)
		if err != nil {
			return nil, err
		}
		err = cfg.everyProtocol(ops, func(proto string, res *netsim.Result) {
			var abs float64
			for _, o := range res.Ops {
				abs += float64(o.Latency)
			}
			if len(res.Ops) > 0 {
				abs /= float64(len(res.Ops)) * 1000
			}
			rows = append(rows, Fig8bRow{
				App:       app.Name(),
				Proto:     proto,
				NormMCT:   res.NormalizedSummary(nil).Mean,
				AbsMeanNs: abs,
			})
		})
		if err != nil {
			return nil, fmt.Errorf("fig8b %s: %w", app.Name(), err)
		}
	}
	return rows, nil
}
