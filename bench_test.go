// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (one benchmark per artifact) plus the ablations. Run
// with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports paper-relevant metrics (latency in ns, normalized
// ratios, throughput) via b.ReportMetric so `go test -bench` output doubles
// as the experiment record. README's Experiment map lists each artifact and
// what checks it; `go run ./cmd/edmbench -experiment <name>` prints the same
// rows as text.
package repro

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// metric builds a ReportMetric unit label (no whitespace allowed).
func metric(parts ...string) string {
	s := strings.Join(parts, "_")
	s = strings.ReplaceAll(s, " ", "-")
	s = strings.ReplaceAll(s, "/", "-")
	s = strings.ReplaceAll(s, "(", "")
	s = strings.ReplaceAll(s, ")", "")
	return s
}

// benchFig8 keeps simulation benchmarks tractable while preserving shape;
// cmd/edmbench runs the paper-scale 144-node configuration.
func benchFig8() experiments.Fig8Config {
	return experiments.Fig8Config{Nodes: 48, Bandwidth: 100, OpsPerRun: 6000, Seed: 1}
}

// BenchmarkTable1 regenerates Table 1: unloaded remote read/write fabric
// latency for all four stacks, with EDM measured on the block-level fabric.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		op := "read"
		if r.Write {
			op = "write"
		}
		b.ReportMetric(r.Total.Nanoseconds(), metric(r.Stack.String(), op, "ns"))
	}
}

// BenchmarkTable1EDMMeasured times the block-level testbed round trip
// itself: one 64 B remote read per iteration.
func BenchmarkTable1EDMMeasured(b *testing.B) {
	var read, write sim.Time
	for i := 0; i < b.N; i++ {
		var err error
		read, write, err = experiments.MeasureEDMUnloaded()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(read.Nanoseconds(), "read_ns")
	b.ReportMetric(write.Nanoseconds(), "write_ns")
}

// BenchmarkFig5 regenerates the Figure 5 cycle breakdown.
func BenchmarkFig5(b *testing.B) {
	var rc, wc int
	for i := 0; i < b.N; i++ {
		rc, wc = experiments.Fig5Totals()
	}
	b.ReportMetric(float64(rc), "read_cycles")
	b.ReportMetric(float64(wc), "write_cycles")
}

// BenchmarkFig6 regenerates Figure 6: YCSB throughput, EDM vs RDMA.
func BenchmarkFig6(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig6()
	}
	for _, r := range rows {
		b.ReportMetric(r.EDMMrps, metric(r.Workload.String(), "EDM", "Mrps"))
		b.ReportMetric(r.RDMAMrps, metric(r.Workload.String(), "RDMA", "Mrps"))
	}
}

// BenchmarkFig7 regenerates Figure 7: YCSB-A latency across local:remote
// splits on the block-level fabric.
func BenchmarkFig7(b *testing.B) {
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig7(200)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.EDMNanos, metric("EDM", r.Label, "ns"))
	}
}

// BenchmarkFig8aLoadSweep regenerates Figure 8a's load sweep (reads and
// writes, all seven protocols).
func BenchmarkFig8aLoadSweep(b *testing.B) {
	var rows []experiments.Fig8aRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig8a(benchFig8(), []float64{0.2, 0.8})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Load == 0.8 {
			b.ReportMetric(r.WritesNorm, metric(r.Proto, "w0.8", "norm"))
		}
	}
}

// BenchmarkFig8aMix regenerates Figure 8a's write:read mixture sweep at
// load 0.8.
func BenchmarkFig8aMix(b *testing.B) {
	var rows []experiments.Fig8aMixRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig8aMix(benchFig8(), []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Norm, metric(r.Proto, "mix50", "norm"))
	}
}

// BenchmarkFig8b regenerates Figure 8b: normalized MCT on the application
// traces (subset per iteration for benchmark runtime; cmd/edmbench runs all
// five at full scale).
func BenchmarkFig8b(b *testing.B) {
	cfg := benchFig8()
	cfg.OpsPerRun = 2000
	var rows []experiments.Fig8bRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig8b(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Proto == "EDM" || r.Proto == "CXL" || r.Proto == "Fastpass" {
			b.ReportMetric(r.NormMCT, metric(r.App, r.Proto))
		}
	}
}

// BenchmarkAblationChunkSize sweeps the grant chunk size (§3.1.3).
func BenchmarkAblationChunkSize(b *testing.B) {
	cfg := benchFig8()
	cfg.OpsPerRun = 2000
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationChunkSize(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Norm, metric("chunk", r.Value))
	}
}

// BenchmarkAblationNotifyCap sweeps X (§3.1.2, paper picks X=3).
func BenchmarkAblationNotifyCap(b *testing.B) {
	cfg := benchFig8()
	cfg.OpsPerRun = 2000
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationNotifyCap(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Norm, metric("X", r.Value))
	}
}

// BenchmarkAblationPolicy compares FCFS and SRPT on a heavy-tailed trace.
func BenchmarkAblationPolicy(b *testing.B) {
	cfg := benchFig8()
	cfg.OpsPerRun = 2000
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationPolicy(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Norm, metric("policy", r.Value))
	}
}

// BenchmarkAblationPIMIters caps the matching iterations per round.
func BenchmarkAblationPIMIters(b *testing.B) {
	cfg := benchFig8()
	cfg.OpsPerRun = 2000
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationPIMIterations(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Norm, metric("iters", r.Value))
	}
}

// BenchmarkAblationPreemption measures intra-frame preemption on/off
// (§3.2.3) on the block-level testbed.
func BenchmarkAblationPreemption(b *testing.B) {
	var res []experiments.PreemptionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationPreemption(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		name := "preempt_mean_ns"
		if r.Policy != "preempting (fair)" {
			name = "nopreempt_mean_ns"
		}
		b.ReportMetric(r.MeanReadNs, name)
	}
}

// BenchmarkIncast runs the bonus 16-to-1 incast comparison.
func BenchmarkIncast(b *testing.B) {
	var rows []experiments.IncastResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Incast(benchFig8(), 16, 50)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanNorm, metric(r.Proto, "mean"))
	}
}

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
