package experiments

import (
	"math"
	"testing"

	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// smallFig8 keeps simulation-based tests fast.
func smallFig8() Fig8Config {
	return Fig8Config{Nodes: 16, OpsPerRun: 2000, Seed: 3}
}

// ablationRows runs the one sweep of the ablation table named param.
func ablationRows(t *testing.T, cfg Fig8Config, param string) []AblationRow {
	t.Helper()
	for _, a := range ablations {
		if a.param == param {
			rows, err := a.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}
	}
	t.Fatalf("no ablation %q", param)
	return nil
}

func TestTable1ReproducesPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The component model must match the paper's totals exactly.
		if r.Total != r.PaperTotal {
			t.Errorf("%v write=%v: model %v, paper %v", r.Stack, r.Write, r.Total, r.PaperTotal)
		}
		// The measured block-level fabric must land within 10% of the
		// paper for EDM.
		if r.Stack == transport.StackEDM {
			dev := math.Abs(float64(r.Measured-r.PaperTotal)) / float64(r.PaperTotal)
			t.Logf("EDM write=%v measured %v vs paper %v (%.1f%%)", r.Write, r.Measured, r.PaperTotal, dev*100)
			if dev > 0.10 {
				t.Errorf("EDM write=%v measured %v deviates %.1f%% from paper %v",
					r.Write, r.Measured, dev*100, r.PaperTotal)
			}
		}
	}
}

func TestTable1Ratios(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	want := map[transport.Stack][2]float64{ // [read, write] vs EDM
		transport.StackRawEthernet: {3.7, 1.9},
		transport.StackRoCE:        {6.8, 3.4},
		transport.StackTCP:         {12.7, 6.4},
	}
	for _, r := range rows {
		w, ok := want[r.Stack]
		if !ok {
			continue
		}
		idx := 0
		if r.Write {
			idx = 1
		}
		if got := r.Ratio(); math.Abs(got-w[idx]) > 0.1 {
			t.Errorf("%v write=%v ratio %.2f, want %.1f", r.Stack, r.Write, got, w[idx])
		}
	}
}

// TestFig5BreakdownConsistent checks Table 1's six EDM PCS cells against
// Figure 5 exactly: each cell is the cycles of the Figure 5 stages at that
// location, plus 2 cycles per PCS crossing there, plus a residual.
func TestFig5BreakdownConsistent(t *testing.T) {
	stageCycles := map[string]int{} // "location op" -> cycles
	for _, s := range Fig5() {
		if s.Time != sim.Time(s.Cycles)*edm.BlockPeriod {
			t.Errorf("stage %q time mismatch", s.Name)
		}
		stageCycles[s.Location+" "+s.Op] += s.Cycles
	}
	// The residuals are cycles Table 1 has and the Figure 5 stage list does
	// not itemize; every other cell's residual is 0.
	const (
		switchReadResidual  = 2
		memoryReadResidual  = 3
		switchWriteResidual = 5
	)
	cells := []struct {
		loc       string
		write     bool
		crossings int // PCS crossings at the location (Table 1's 2x, 4x, ...)
		residual  int
		cell      func(transport.Breakdown) sim.Time
	}{
		{"compute", false, 2, 0, func(b transport.Breakdown) sim.Time { return b.ComputePCS }},
		{"switch", false, 4, switchReadResidual, func(b transport.Breakdown) sim.Time { return b.SwitchPCS }},
		{"memory", false, 2, memoryReadResidual, func(b transport.Breakdown) sim.Time { return b.MemoryPCS }},
		{"compute", true, 3, 0, func(b transport.Breakdown) sim.Time { return b.ComputePCS }},
		{"switch", true, 4, switchWriteResidual, func(b transport.Breakdown) sim.Time { return b.SwitchPCS }},
		{"memory", true, 1, 0, func(b transport.Breakdown) sim.Time { return b.MemoryPCS }},
	}
	for _, c := range cells {
		op := "read"
		if c.write {
			op = "write"
		}
		stages := stageCycles[c.loc+" "+op]
		want := sim.Time(stages+2*c.crossings+c.residual) * edm.BlockPeriod
		if got := c.cell(transport.Table1(transport.StackEDM, c.write)); got != want {
			t.Errorf("%s %s PCS = %v, want %d stage + 2x%d crossing + %d residual cycles = %v",
				c.loc, op, got, stages, c.crossings, c.residual, want)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rows := Fig6()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%v: EDM %.1f Mrps, RDMA %.1f Mrps (%.2fx)", r.Workload, r.EDMMrps, r.RDMAMrps, r.Ratio)
		// Paper: EDM ~2.7x RDMA. Our closed-loop model lands 1.5-3x
		// depending on the mix; EDM must always win by >1.4x.
		if r.Ratio < 1.4 {
			t.Errorf("%v: EDM/RDMA ratio %.2f < 1.4", r.Workload, r.Ratio)
		}
	}
	// YCSB-A: EDM saturates the link near the paper's ~23 Mrps.
	if a := rows[0]; a.EDMMrps < 18 || a.EDMMrps > 28 {
		t.Errorf("YCSB-A EDM throughput %.1f Mrps outside 18-28", a.EDMMrps)
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7(150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	prevEDM := 0.0
	for _, r := range rows {
		t.Logf("%7s: EDM %.0fns (paper %.0f)  CXL %.0fns (paper %.0f)  RDMA %.0fns (paper %.0f)",
			r.Label, r.EDMNanos, r.PaperEDM, r.CXLNanos, r.PaperCXL, r.RDMANanos, r.PaperRDMA)
		// More remote => slower, monotonically.
		if r.EDMNanos < prevEDM {
			t.Errorf("%s: EDM latency fell as remote fraction grew", r.Label)
		}
		prevEDM = r.EDMNanos
		// Ordering per the paper: CXL < EDM < RDMA, with EDM within ~1.6x
		// of CXL and far below RDMA.
		if !(r.CXLNanos <= r.EDMNanos && r.EDMNanos < r.RDMANanos) {
			t.Errorf("%s: ordering violated: CXL %.0f, EDM %.0f, RDMA %.0f",
				r.Label, r.CXLNanos, r.EDMNanos, r.RDMANanos)
		}
		if ratio := r.EDMNanos / r.CXLNanos; ratio > 1.8 {
			t.Errorf("%s: EDM/CXL %.2f > 1.8", r.Label, ratio)
		}
	}
}

func TestFig8aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Each load has its own seeded trace, so the 0.2 and 0.8 rows do not
	// depend on the other loads in the sweep.
	rows, err := Fig8a(smallFig8())
	if err != nil {
		t.Fatal(err)
	}
	get := func(proto string, load float64) Fig8aRow {
		for _, r := range rows {
			if r.Proto == proto && r.Load == load {
				return r
			}
		}
		t.Fatalf("missing row %s/%.1f", proto, load)
		return Fig8aRow{}
	}
	// EDM stays near unloaded at both loads.
	for _, load := range []float64{0.2, 0.8} {
		r := get("EDM", load)
		t.Logf("EDM load %.1f: reads %.2f writes %.2f", load, r.ReadsNorm, r.WritesNorm)
		if r.ReadsNorm > 1.8 || r.WritesNorm > 1.8 {
			t.Errorf("EDM at load %.1f: reads %.2f writes %.2f", load, r.ReadsNorm, r.WritesNorm)
		}
	}
	// Fastpass is far worse at high load and grows with load.
	fp2, fp8 := get("Fastpass", 0.2), get("Fastpass", 0.8)
	if fp8.WritesNorm < 2*get("EDM", 0.8).WritesNorm {
		t.Errorf("Fastpass at 0.8 (%.2f) not clearly above EDM", fp8.WritesNorm)
	}
	if fp8.WritesNorm <= fp2.WritesNorm {
		t.Errorf("Fastpass did not degrade with load: %.2f -> %.2f", fp2.WritesNorm, fp8.WritesNorm)
	}
}

func TestFig8bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Heavy-tailed MCT is scale-sensitive: with few nodes the in-order
	// pair FIFOs (§3.1.1 property 5) serialize small ops behind huge ones
	// far more often than at the paper's 144 nodes. Use 64 nodes here;
	// cmd/edmbench runs the full scale.
	cfg := Fig8Config{Nodes: 64, OpsPerRun: 1500, Seed: 3}
	rows, err := Fig8b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byApp := map[string]map[string]float64{}
	absByApp := map[string]map[string]float64{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[string]float64{}
			absByApp[r.App] = map[string]float64{}
		}
		byApp[r.App][r.Proto] = r.NormMCT
		absByApp[r.App][r.Proto] = r.AbsMeanNs
	}
	for app, m := range byApp {
		t.Logf("%-20s EDM %.2f  IRD %.2f  CXL %.2f  Fastpass %.2f", app, m["EDM"], m["IRD"], m["CXL"], m["Fastpass"])
		// Paper: EDM within 1.2-1.4x ideal at 144 nodes; allow headroom at
		// this reduced scale where pair-FIFO serialization is more common.
		if m["EDM"] > 8 {
			t.Errorf("%s: EDM MCT %.2f too far from ideal", app, m["EDM"])
		}
		if m["Fastpass"] < m["EDM"] {
			t.Errorf("%s: Fastpass (%.2f) beat EDM (%.2f)", app, m["Fastpass"], m["EDM"])
		}
		// EDM's ABSOLUTE mean MCT must be the lowest of all protocols.
		for proto, abs := range absByApp[app] {
			if proto != "EDM" && abs < absByApp[app]["EDM"] {
				t.Errorf("%s: %s absolute MCT %.0fns below EDM %.0fns",
					app, proto, abs, absByApp[app]["EDM"])
			}
		}
	}
}

func TestAblationChunkSize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallFig8()
	cfg.OpsPerRun = 1000
	rows := ablationRows(t, cfg, "chunk")
	for _, r := range rows {
		t.Logf("chunk %s: %.3f", r.Value, r.Norm)
		if r.Norm <= 0 {
			t.Errorf("chunk %s: norm %.3f", r.Value, r.Norm)
		}
	}
}

func TestAblationPolicySRPTWinsOnHeavyTail(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallFig8()
	cfg.OpsPerRun = 1500
	rows := ablationRows(t, cfg, "policy")
	var fcfs, srpt float64
	for _, r := range rows {
		t.Logf("policy %s: %.3f", r.Value, r.Norm)
		if r.Value == "FCFS" {
			fcfs = r.Norm
		} else {
			srpt = r.Norm
		}
	}
	// SRPT must not lose to FCFS on a heavy-tailed workload (§3.1.1).
	if srpt > fcfs*1.10 {
		t.Errorf("SRPT (%.3f) materially worse than FCFS (%.3f) on heavy tail", srpt, fcfs)
	}
}

func TestAblationPreemption(t *testing.T) {
	res, err := AblationPreemption()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	pre, noPre := res[0], res[1]
	t.Logf("preempting: mean %.0fns max %.0fns; frame-first: mean %.0fns max %.0fns",
		pre.MeanReadNs, pre.MaxReadNs, noPre.MeanReadNs, noPre.MaxReadNs)
	// Without preemption the RREQ waits behind 1500 B frames (480ns at
	// 25G); with preemption reads stay near the unloaded ~310ns.
	if pre.MeanReadNs >= noPre.MeanReadNs {
		t.Errorf("preemption did not help: %.0f vs %.0f", pre.MeanReadNs, noPre.MeanReadNs)
	}
	if pre.MaxReadNs > 600 {
		t.Errorf("preempting max read %.0fns too high", pre.MaxReadNs)
	}
}

func TestIncast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Incast(8, 30)
	if err != nil {
		t.Fatal(err)
	}
	var edmMean float64
	for _, r := range res {
		t.Logf("incast %-6s mean %.2f p99 %.2f", r.Proto, r.MeanNorm, r.P99Norm)
		if r.Proto == "EDM" {
			edmMean = r.MeanNorm
		}
	}
	for _, r := range res {
		if r.Proto != "EDM" && r.MeanNorm < edmMean*0.9 {
			t.Errorf("incast: %s (%.2f) beat EDM (%.2f)", r.Proto, r.MeanNorm, edmMean)
		}
	}
}

func TestWirePerOpSanity(t *testing.T) {
	// Read-heavy: bottleneck is the 1 KB response direction.
	e := wirePerOp(transport.StackEDM, 0.05)
	r := wirePerOp(transport.StackRoCE, 0.05)
	if e >= r {
		t.Errorf("EDM wire/op %.0f >= RoCE %.0f", e, r)
	}
	if e < 900 || e > 1200 {
		t.Errorf("EDM read-heavy wire/op %.0f implausible", e)
	}
}

func TestFig8TraceDeterminism(t *testing.T) {
	cfg := smallFig8()
	a, err := cfg.trace(workload.Fixed(64), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.trace(workload.Fixed(64), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace generation not deterministic")
		}
	}
}

func TestAblationBatching(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallFig8()
	cfg.OpsPerRun = 1500
	rows := ablationRows(t, cfg, "batch")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("batch %s: %.3f", r.Value, r.Norm)
		if r.Norm <= 0 {
			t.Errorf("batch %s: %.3f", r.Value, r.Norm)
		}
	}
}
