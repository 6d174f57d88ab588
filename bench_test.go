// Package repro's root benchmarks time the simulators themselves: the
// in-network scheduler, the block-level fabric, the flow-level EDM model
// and the input-queued switch under the flow-level PFC and CXL models.
// They regenerate no paper artifact; `go run ./cmd/edmbench -experiment
// <name>` does, and README's Experiment map lists each one and what checks
// it. Run with:
//
//	go test -run '^$' -bench . -benchmem
package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkSchedulerThroughput measures raw scheduler decision rate: grants
// issued per second of wall time under a saturated permutation demand.
func BenchmarkSchedulerThroughput(b *testing.B) {
	const ports = 64
	eng := sim.NewEngine()
	cfg := sched.DefaultConfig(ports)
	s := sched.New(eng, cfg)
	grants := 0
	s.OnGrant = func(g sched.Grant) {
		if g.Final {
			// Refill the pair to keep the scheduler saturated.
			ref := g.MsgRef
			ref.ID += ports
			_ = s.Notify(sched.MsgRef{Src: ref.Src, Dst: ref.Dst, ID: ref.ID, Size: 4096})
		}
		grants++
	}
	for i := 0; i < ports; i++ {
		_ = s.Notify(sched.MsgRef{Src: i, Dst: (i + 1) % ports, ID: uint64(i), Size: 4096})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.Step() {
			b.Fatal("scheduler ran dry")
		}
	}
	b.ReportMetric(float64(grants)/float64(b.N), "grants-per-event")
}

// BenchmarkFabric64BRead measures the block-level simulator's wall-clock
// cost per simulated 64 B read.
func BenchmarkFabric64BRead(b *testing.B) {
	read, _, err := experiments.MeasureEDMUnloaded()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.MeasureEDMUnloaded(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(read.Nanoseconds(), "simulated_ns")
}

// BenchmarkNetsimEDM measures simulator throughput: simulated ops per
// wall-clock second at 48 nodes, load 0.8.
func BenchmarkNetsimEDM(b *testing.B) {
	ops, err := workload.Generate(workload.GenConfig{
		Nodes: 48, Load: 0.8, Bandwidth: 100,
		Sizes: workload.Fixed(64), ReadFrac: 0.5, Count: 5000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := netsim.Config{Nodes: 48, Bandwidth: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&netsim.EDM{}).Run(cfg, ops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ops)), "ops-per-run")
}

// BenchmarkNetsimIQSwitch measures the input-queued switch that PFC and CXL
// share: wall time per replay of a hadoop-sort trace at 144 nodes (the
// paper's cluster) and load 0.8, arrivals scaled to each model's wire bytes
// as Figure 8 runs them. The trace is four ops per node: at 144 nodes the
// CXL model spends most of its time rescanning the switch, and one
// iteration of both sub-benchmarks takes a few seconds.
func BenchmarkNetsimIQSwitch(b *testing.B) {
	const nodes = 144
	ops, err := workload.Generate(workload.GenConfig{
		Nodes: nodes, Load: 0.8, Bandwidth: 100,
		Sizes: workload.Hadoop(), ReadFrac: 0.5, Count: 4 * nodes, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := netsim.Config{Nodes: nodes, Bandwidth: 100}
	for _, p := range []netsim.Protocol{netsim.PFC{}, netsim.CXL{}} {
		b.Run(p.Name(), func(b *testing.B) {
			scaled := netsim.ScaleArrivals(p, ops)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(cfg, scaled); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(ops)), "ops-per-run")
		})
	}
}
