//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/memctl"
	"repro/internal/wire"
)

// The harness re-executes its own binary for every repetition; under
// `go test` that binary is the test binary, so it answers -child too.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		cli.Exit("benchmark", runChildMode(os.Args[2], os.Stdout))
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const smokeSlab = 16 << 20

// smokeRun drives the command behind its flag parsing (R = 1, ~200 ms, a
// small slab) and returns the gate line it ends with.
func smokeRun(t *testing.T, outDir, workload string, trace int) gateLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := runHarness(options{workload: workload, seed: 7, seconds: 0.2, trace: trace,
		reps: 1, slab: smokeSlab, outDir: outDir}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%s -trace %d: %v\nstderr:\n%s\nstdout:\n%s", workload, trace, err, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line gateLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last stdout line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", workload, line.Correct, line.Failed, line.Attempted, stderr.String())
	}
	for _, want := range []string{"closed loop", "window", "pinning:", "latency samples per repetition", "-dup-window"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("%s: report does not state %q", workload, want)
		}
	}
	return line
}

func checkMetrics(t *testing.T, workload string, got map[string]gateMetric, defs []metricDef, positive bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", workload, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, d.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestSmokeEndToEnd runs every workload through the command itself.
func TestSmokeEndToEnd(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		line := smokeRun(t, out, w.Name, 0)
		checkMetrics(t, w.Name, line.Metrics, endToEnd, true)
	}
}

// TestSmokePerLayer runs the whole per-layer pass (traced repetition, direct
// calls, every rung) for loop-read64 and checks the span budget closes and
// the generator stays a small share of what it measures.
func TestSmokePerLayer(t *testing.T) {
	out := t.TempDir()
	line := smokeRun(t, out, "loop-read64", 1)
	checkMetrics(t, "loop-read64", line.Metrics, perLayer, false)
	if gap := line.Metrics["trace.budget_gap_pct"].Value; gap > 10 {
		t.Errorf("span budget does not close: layer self times miss the op span by %.1f%%", gap)
	}
	for _, name := range []string{"rmem.client.issue_self_ns", "rmem.client.complete_self_ns",
		"wire.responder.self_ns", "rmem.server.service_ns", "wire.loopback.send_self_ns", "ladder.rmem_ns", "ladder.udp_ns"} {
		if v := line.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %v on loop-read64, want a positive time", name, v)
		}
	}
	if line.Metrics[failRatio].Value != 0 {
		t.Errorf("fail_ratio = %v", line.Metrics[failRatio].Value)
	}
	seen := map[string]bool{}
	for _, s := range readSpans(t, filepath.Join(out, "trace-loop-read64.json")) {
		seen[s.Name] = true
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, name := range spanNames {
		if !seen[name] {
			t.Errorf("trace file has no %q span", name)
		}
	}
}

func readSpans(t *testing.T, path string) []spanJSON {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []spanJSON `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Spans
}

// TestSmokeTracedInProcess runs one traced repetition of the other four
// workloads in-process: every metric a repetition owes must be there.
func TestSmokeTracedInProcess(t *testing.T) {
	bin, _, err := buildEdmd(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.Name == "loop-read64" {
			continue
		}
		res, err := runRep(repConfig{Spec: w.Name, Seed: 7, Seconds: 0.2, Trace: true, Slab: smokeSlab,
			Warmup: 512, EdmdBin: bin, TraceFile: filepath.Join(t.TempDir(), "trace.json")})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s: %d failures: %s", w.Name, res.Failed, res.FirstErr)
		}
		want := []string{"rmem.client.issue_self_ns", "rmem.client.complete_self_ns", "rmem.server.service_ns", "trace.budget_gap_pct"}
		switch w.Target {
		case tUDP:
			want = append(want, "wire.udp.send_ns", "wire.udp.rtt_ns", "wire.udp.datagrams_per_send",
				"wire.udp.server_cpu_us_per_op", "wire.udp.server_ctxsw_per_op")
		case tCluster:
			want = append(want, "cluster.subops_per_op", "cluster.split_ops", "driver.split_p50_us")
		}
		for _, name := range want {
			if v, ok := res.Layer[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || (v <= 0 && name != "trace.budget_gap_pct") {
				t.Errorf("%s: %s = %v (present %v)", w.Name, name, v, ok)
			}
		}
		// In one process the budget is exact; across two it compares two
		// independent measurements and only has to exist.
		if gap := res.Layer["trace.budget_gap_pct"]; w.Target != tUDP && gap > 10 {
			t.Errorf("%s: budget gap %.1f%%", w.Name, gap)
		}
	}
}

// TestTracedRetransmissionsKeepOffTheIssuersLane makes most ops of a traced
// UDP repetition retransmit (a retry timeout below the median latency).
// Retransmissions leave on the retry timers' goroutines: they must be
// forwarded without touching the issuing goroutine's span lane (the race
// detector, which CI runs this under, sees it if they do), so every op keeps
// exactly one pipe.send span, and the dedup window keeps them exactly-once.
func TestTracedRetransmissionsKeepOffTheIssuersLane(t *testing.T) {
	bin, _, err := buildEdmd(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func(old wire.ConnConfig) { retryConfig = old }(retryConfig)
	retryConfig = wire.ConnConfig{RetryTimeout: 100 * time.Microsecond, MaxRetries: 1 << 20}
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	res, err := runRep(repConfig{Spec: "udp-mixed64-w32", Seed: 7, Seconds: 0.3, Trace: true, Slab: smokeSlab,
		Warmup: 512, EdmdBin: bin, TraceFile: traceFile})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failures: %s", res.Failed, res.FirstErr)
	}
	if n := res.Layer["wire.conn.retransmits"]; n < 100 {
		t.Fatalf("only %v retransmissions: the test did not exercise what it is for", n)
	}
	if d := res.Layer["wire.udp.datagrams_per_send"]; d != 1 {
		t.Errorf("datagrams per traced send = %v, want 1", d)
	}
	sends := map[uint32]int{}
	for _, s := range readSpans(t, traceFile) {
		if s.Name == spanNames[spPipeSend] {
			sends[s.Op]++
		}
	}
	for op, n := range sends {
		if n != 1 {
			t.Fatalf("op %d has %d pipe.send spans, want 1: a retransmission was recorded on the issuer's lane", op, n)
		}
	}
}

// TestWrongPatternIsReported injects the fault the data checks exist for:
// with a wrong expected read pattern every read must count as failed, and
// bytes changed behind the benchmark's back must fail the post-run sweep.
func TestWrongPatternIsReported(t *testing.T) {
	cfg := repConfig{Spec: "loop-read64", Seed: 7, Seconds: 0.05, Slab: smokeSlab, Warmup: 64}
	cfg.WrongExpect = true
	res, err := runRep(cfg)
	if err == nil && res.Failed == 0 {
		t.Fatal("a wrong expected pattern was not reported as a verification failure")
	}
	if err == nil && !strings.Contains(res.FirstErr, "verification mismatch") {
		t.Fatalf("first error %q does not name the mismatch", res.FirstErr)
	}

	lay, err := newLayout(smokeSlab)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := findSpec("loop-bulk16k-rw")
	tg, err := buildTarget(sp, smokeSlab, nil, "", cpuSet{})
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	ver := newVerifier(lay, false)
	if bad, err := tg.verifyState(ver); err != nil || bad != 0 {
		t.Fatalf("fresh slab: bad=%d err=%v", bad, err)
	}
	if err := tg.clients[0].WriteSync(lay.writeLo+4096, []byte("stray bytes no op wrote")); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.clients[0].RMWSync(lay.ctrLo+64, memctl.OpFetchAdd, 5); err != nil {
		t.Fatal(err)
	}
	if bad, err := tg.verifyState(ver); err != nil || bad != 2 {
		t.Fatalf("sweep found %d bad blocks/counters (err %v), want 2: the stray write and the unacked add", bad, err)
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json, which the gate reads, in
// step with the tables the program reports from.
func TestManifestMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, spec %s / %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: manifest %+v, spec %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) -> [q1, median, q3]
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(ops ...float64) []workloadResult {
		e2e := map[string]summary{}
		for _, m := range endToEndShown {
			e2e[m.Name] = summarize([]float64{1, 1, 1})
		}
		e2e["ops_per_s"] = summarize(ops)
		return []workloadResult{{Name: "loop-read64", E2E: e2e}}
	}
	verdict := func(a, b []workloadResult) string {
		for _, r := range compareSets(a, b) {
			if r.Metric == "ops_per_s" {
				return r.Verdict
			}
		}
		return ""
	}
	base := mk(100, 101, 102)
	if v := verdict(base, mk(100, 102, 103)); v != "same" {
		t.Errorf("within bound: %s", v)
	}
	if v := verdict(base, mk(60, 61, 62)); v != "worse" {
		t.Errorf("40%% fewer ops/s: %s", v)
	}
	if v := verdict(base, mk(140, 141, 142)); v != "better" {
		t.Errorf("40%% more ops/s: %s", v)
	}
	if v := verdict(base, mk(40, 101, 160)); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
}
