package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"repro/internal/cli"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/rmem"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// makeTrace renders a small deterministic trace in the wire format.
func makeTrace(t *testing.T, seed uint64) string {
	t.Helper()
	ops, err := workload.Generate(workload.GenConfig{
		Nodes: 8, Load: 0.5, Bandwidth: 100,
		Sizes: workload.Memcached(), ReadFrac: 0.5, Count: 400, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, ops); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func load(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, strings.NewReader(stdin), &out, &errb); err != nil {
		t.Fatalf("edmload %v: %v (%s)", args, err, errb.String())
	}
	return out.String()
}

// TestLoopbackDeterministic is the acceptance check: replaying a tracegen
// trace against the loopback server yields a byte-identical report for a
// fixed seed.
func TestLoopbackDeterministic(t *testing.T) {
	tr := makeTrace(t, 11)
	a := load(t, tr, "-seed", "5")
	b := load(t, tr, "-seed", "5")
	if a != b {
		t.Fatalf("same trace+seed produced different reports:\n%s\n---\n%s", a, b)
	}
	m := regexp.MustCompile(`operations\s+issued (\d+) done (\d+) failed 0 shed 0`).FindStringSubmatch(a)
	if m == nil {
		t.Fatalf("report missing clean op counts:\n%s", a)
	}
	if m[1] != m[2] {
		t.Fatalf("issued %s but done %s:\n%s", m[1], m[2], a)
	}
	for _, want := range []string{
		`endpoint\s+loopback \(virtual clock\)`,
		`latency \(ns\) \(all\)\s+mean`,
		`latency \(ns\) \(reads\)`, `latency \(ns\) \(writes\)`,
		`throughput\s+\d+ ops/s`,
		`transport\s+sent \d+ retransmits 0 timeouts 0`,
		`server\s+reads \d+ writes \d+`,
	} {
		if !regexp.MustCompile(want).MatchString(a) {
			t.Errorf("report missing %q:\n%s", want, a)
		}
	}
	// A different address seed must change the numbers.
	if c := load(t, tr, "-seed", "6"); c == a {
		t.Fatal("different seed produced an identical report")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestLoopbackGolden pins two loopback reports byte for byte: the virtual
// clock makes them a pure function of the flags, so they only move when the
// wire protocol, the timing model or the report format does. go test
// -update rewrites the files.
func TestLoopbackGolden(t *testing.T) {
	for name, args := range map[string][]string{
		"fixed64-5000-seed7":   {"-profile", "fixed64", "-count", "5000", "-seed", "7"},
		"memcached-3000-seed3": {"-profile", "memcached", "-count", "3000", "-seed", "3"},
	} {
		got := load(t, "", args...)
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("edmload %v differs from %s (rerun with -update if the change is intended):\n%s", args, path, got)
		}
	}
}

// TestGeneratedWorkload drives the loopback from a generated op stream.
func TestGeneratedWorkload(t *testing.T) {
	out := load(t, "", "-profile", "fixed64", "-count", "300", "-nodes", "4")
	for _, want := range []string{
		`source\s+generated fixed64 \(300 ops, seed 1\)`,
		`operations\s+issued \d+ done \d+ failed 0`,
	} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestEdmloadHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-h"}, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatalf("-h should exit cleanly, got %v", err)
	}
}

func TestEdmloadUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-window"},                      // flag parse failure
		{"-window", "8"},                 // window without -addr (loopback is closed-loop)
		{"-addr", "h:1", "-window", "0"}, // window below 1
		{"-rate", "-3"},                  // negative rate
		{"-rate", "100"},                 // rate without -addr
		{"-nodes", "4"},                  // generation flag without -profile
		{"-profile", "fixed64", "-trace", "t.txt"}, // conflicting sources
		{"-profile", "nope"},                       // unknown profile
		{"-addr", "h:1", "-slab", "64"},            // loopback geometry with live endpoint
		{"stray"},                                  // unexpected positional
		{"-addr", "h:1", "-cluster", "h:2,h:3"},    // conflicting endpoints
		{"-cluster", "h:1"},                        // a cluster needs two nodes
		{"-cluster", "h:1,h:2", "-slab", "64"},     // live servers own their geometry
		{"-cluster", "h:1,h:2", "-trace-ops", "8"}, // the trace ring follows one connection
		{"-cluster", "h:1,h:2", "-window", "513"},  // two datagrams per node per op must fit MaxWindow
		{"-cluster", "h:1,h:2", "-evict", "3"},     // no such flag: eviction has one rule, no knob
		{"-metrics", "127.0.0.1:0"},                // cluster knob without -cluster
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		err := run(args, strings.NewReader(""), &out, &errb)
		var ue cli.UsageError
		if !errors.Is(err, cli.ErrFlagParse) && !errors.As(err, &ue) {
			t.Errorf("edmload %v: got %v, want a usage error", args, err)
		}
	}
	// Runtime (exit 1) errors: empty trace, missing file.
	var out, errb bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out, &errb); err == nil {
		t.Error("empty trace accepted")
	}
	if err := run([]string{"-trace", "/does/not/exist"}, strings.NewReader(""), &out, &errb); err == nil {
		t.Error("missing trace file accepted")
	}
}

// startServer spins an in-process rmem server on an ephemeral UDP port.
func startServer(t *testing.T) (addr string, srv *rmem.Server) {
	t.Helper()
	srv, err := rmem.NewServer(rmem.ServerConfig{
		Geometry: rmem.Geometry{SlabBytes: 1 << 22}})
	if err != nil {
		t.Fatal(err)
	}
	us, err := wire.ListenUDP("127.0.0.1:0", nil, func(reply wire.Pipe) func([]byte) {
		return srv.NewSession(reply).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { us.Close() })
	return us.Addr(), srv
}

// TestLiveEndpoint replays a trace against a real UDP server, pipelined.
func TestLiveEndpoint(t *testing.T) {
	addr, srv := startServer(t)
	out := load(t, makeTrace(t, 7), "-addr", addr, "-window", "8",
		"-retry", "100ms", "-retries", "10")
	for _, want := range []string{
		`endpoint\s+udp ` + regexp.QuoteMeta(addr),
		`operations\s+issued \d+ done \d+ failed 0 shed 0`,
		`latency \(ns\) \(all\)`,
		`transport\s+sent \d+ .*, tx datagrams [1-9]\d* msgs [1-9]\d* lone \d+`,
	} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if st := srv.Stats(); st.Reads == 0 || st.Writes == 0 {
		t.Errorf("server never saw traffic: %+v", st)
	}
}

// TestClusterEndpoint drives the dual-homed cluster service over four real
// UDP servers and checks the report's cluster summary and /metrics endpoint.
func TestClusterEndpoint(t *testing.T) {
	var addrs []string
	var servers []*rmem.Server
	for i := 0; i < 4; i++ {
		addr, srv := startServer(t)
		addrs = append(addrs, addr)
		servers = append(servers, srv)
	}
	out := load(t, makeTrace(t, 7), "-cluster", strings.Join(addrs, ","),
		"-window", "4", "-metrics", "127.0.0.1:0", "-retry", "100ms", "-retries", "10")
	for _, want := range []string{
		`endpoint\s+cluster ` + regexp.QuoteMeta(strings.Join(addrs, ",")),
		`operations\s+issued \d+ done \d+ failed 0`,
		`latency \(ns\) \(all\)`,
		`cluster\s+nodes 4 extents \d+ x \d+ B epoch 0`,
		`cluster faults\s+failovers 0 splits \d+ evictions 0 moved 0 B lost 0 owed 0\n`,
		`edmload: metrics on http://`,
	} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Dual-homed write-through: every node serves traffic.
	for i, srv := range servers {
		if st := srv.Stats(); st.Reads+st.Writes == 0 {
			t.Errorf("node %d never saw traffic: %+v", i, st)
		}
	}

	// The cluster is paced and reports progress like any other target: the
	// open loop issues on schedule and accounts for every op.
	var out2, errb bytes.Buffer
	start := time.Now()
	if err := run([]string{"-cluster", strings.Join(addrs, ","), "-profile", "fixed64", "-count", "200",
		"-rate", "20000", "-window", "16", "-progress", "2ms", "-retry", "100ms", "-retries", "10"},
		strings.NewReader(""), &out2, &errb); err != nil {
		t.Fatalf("paced cluster run: %v (%s)", err, errb.String())
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("paced run finished implausibly fast: %v", elapsed)
	}
	m := regexp.MustCompile(`operations\s+issued (\d+) done (\d+) failed 0 shed (\d+)\n`).FindStringSubmatch(out2.String())
	if m == nil {
		t.Fatalf("paced cluster report missing op counts:\n%s", out2.String())
	}
	issued, _ := strconv.Atoi(m[1])
	done, _ := strconv.Atoi(m[2])
	shed, _ := strconv.Atoi(m[3])
	if done == 0 || done+shed != issued {
		t.Errorf("paced cluster accounting: issued %d done %d shed %d", issued, done, shed)
	}
	if !regexp.MustCompile(`edmload: progress done \d+ failed 0 shed \d+ of \d+, retransmits \d+, elapsed \S+s\n`).MatchString(errb.String()) {
		t.Errorf("paced cluster run printed no progress line:\n%s", errb.String())
	}
}

// TestProgressLoopback: on the loopback progress counts on the virtual
// clock, so the lines are as deterministic as the report: one per interval
// crossed, printed by the op that crossed it.
func TestProgressLoopback(t *testing.T) {
	args := []string{"-profile", "fixed64", "-count", "400", "-seed", "2", "-progress", "50us"}
	a, b := loadBoth(t, args...), loadBoth(t, args...)
	if a != b {
		t.Fatalf("progress output is nondeterministic:\n%s\n---\n%s", a, b)
	}
	lines := regexp.MustCompile(`(?m)^edmload: progress done (\d+) failed 0 shed 0 of (\d+), retransmits 0, virtual (\S+)us$`).FindAllStringSubmatch(a, -1)
	hm := regexp.MustCompile(`horizon\s+(\S+)us`).FindStringSubmatch(a)
	if hm == nil {
		t.Fatalf("no horizon row:\n%s", a)
	}
	horizon, _ := strconv.ParseFloat(hm[1], 64)
	if want := int(horizon / 50); len(lines) != want || want < 3 {
		t.Fatalf("%d progress lines over a %vus horizon, want %d:\n%s", len(lines), horizon, want, a)
	}
	prev := 0
	for i, l := range lines {
		n, _ := strconv.Atoi(l[1])
		at, _ := strconv.ParseFloat(l[3], 64)
		// Line i is printed by the first op to complete at or past (i+1) intervals.
		if n <= prev || l[2] != lines[0][2] || at < float64(50*(i+1)) || at >= float64(50*(i+2)) {
			t.Errorf("progress line %d out of order or off schedule: %v", i, l[0])
		}
		prev = n
	}
}

// TestLiveRatePaced exercises the open-loop path (and its shed accounting).
func TestLiveRatePaced(t *testing.T) {
	addr, _ := startServer(t)
	start := time.Now()
	out := load(t, "", "-addr", addr, "-profile", "fixed64", "-count", "200",
		"-rate", "20000", "-window", "16", "-retry", "100ms", "-retries", "10")
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("paced run finished implausibly fast: %v", elapsed)
	}
	if !regexp.MustCompile(`operations\s+issued 1\d\d done`).MatchString(out) {
		t.Errorf("report missing issue count:\n%s", out)
	}

	// Wall-clock progress runs on a ticker, not on op completions: three ops
	// 10 ms apart still report every 2 ms in between, and the horizon prints
	// as a time.Duration.
	both := loadBoth(t, "-addr", addr, "-profile", "fixed64", "-nodes", "3", "-count", "3", "-rate", "100", "-progress", "2ms")
	lines := regexp.MustCompile(`(?m)^edmload: progress done [0-3] failed 0 shed 0 of 3, retransmits 0, elapsed \S+ms$`).FindAllString(both, -1)
	if len(lines) < 5 {
		t.Errorf("%d progress lines over a 20 ms paced run, want at least 5:\n%s", len(lines), both)
	}
	if !regexp.MustCompile(`horizon\s+2\d\.\d+ms\n`).MatchString(both) {
		t.Errorf("horizon row is not a ~20 ms time.Duration:\n%s", both)
	}
}

// parseRow extracts mean/p50/p90/p99/max from one labelled report row.
func parseRow(t *testing.T, report, label string) map[string]float64 {
	t.Helper()
	re := regexp.MustCompile(regexp.QuoteMeta(label) +
		`\s+mean (\S+) p50 (\S+) p90 (\S+) p99 (\S+) max (\S+)`)
	m := re.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("report missing row %q:\n%s", label, report)
	}
	out := map[string]float64{}
	for i, k := range []string{"mean", "p50", "p90", "p99", "max"} {
		v, err := strconv.ParseFloat(m[i+1], 64)
		if err != nil {
			t.Fatalf("row %q field %s = %q: %v", label, k, m[i+1], err)
		}
		out[k] = v
	}
	return out
}

// TestHistogramRowsCrossCheck: the telemetry histograms observe the same
// completions as the exact per-op samples, on the same virtual clock, so
// the histogram rows must agree with the exact rows to within the
// histogram's 1/16-bucket relative resolution.
func TestHistogramRowsCrossCheck(t *testing.T) {
	out := load(t, "", "-profile", "memcached", "-count", "600", "-seed", "7")
	for _, kind := range []string{"reads", "writes"} {
		exact := parseRow(t, out, "latency (ns) ("+kind+")")
		hist := parseRow(t, out, "histogram (ns) ("+kind+")")
		for _, q := range []string{"p50", "p90", "p99", "max"} {
			want, got := exact[q], hist[q]
			// One log-linear sub-bucket of relative error, plus interpolation
			// slack within the bucket.
			tol := want/16 + 2
			if got < want-tol || got > want+tol {
				t.Errorf("%s %s: histogram %v vs exact %v (tol %v)", kind, q, got, want, tol)
			}
		}
		if exact["mean"] <= 0 || hist["mean"] <= 0 {
			t.Errorf("%s: non-positive means (exact %v hist %v)", kind, exact["mean"], hist["mean"])
		}
	}
}

// TestTraceOpsFlag: -trace-ops dumps per-op records on stderr after the
// report, and the dump stays deterministic on the loopback's virtual clock.
func TestTraceOpsFlag(t *testing.T) {
	run1 := loadBoth(t, "-profile", "fixed64", "-count", "50", "-seed", "2", "-trace-ops", "16")
	run2 := loadBoth(t, "-profile", "fixed64", "-count", "50", "-seed", "2", "-trace-ops", "16")
	if run1 != run2 {
		t.Fatalf("trace dump is nondeterministic:\n%s\n---\n%s", run1, run2)
	}
	lines := 0
	for _, l := range strings.Split(run1, "\n") {
		if strings.HasPrefix(l, "edmload: traceop ") {
			lines++
		}
	}
	if lines != 16 {
		t.Fatalf("want 16 traceop lines, got %d:\n%s", lines, run1)
	}
	if !regexp.MustCompile(`edmload: traceop seq=\d+ id=\d+ stage=(enqueue|send|retry|complete|timeout) kind=\S+ ts=\d+ns arg=\d+`).MatchString(run1) {
		t.Fatalf("traceop line shape unexpected:\n%s", run1)
	}
}

// loadBoth runs edmload capturing stdout and stderr together.
func loadBoth(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatalf("edmload %v: %v (%s)", args, err, errb.String())
	}
	return out.String() + "\n===\n" + errb.String()
}
