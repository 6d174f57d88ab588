package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// makeTrace renders a small deterministic trace in the wire format.
func makeTrace(t *testing.T, seed uint64) string {
	t.Helper()
	ops, err := workload.Generate(workload.GenConfig{
		Nodes: 16, Load: 0.5, Bandwidth: 100,
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

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got with testdata/<name>.golden byte for byte;
// go test -update rewrites the file instead.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (rerun with -update if the change is intended):\n%s", path, got)
	}
}

// TestScenarioGolden pins the reports of every builtin scenario but
// protocol-storm (3 s; scripts/sim_identical.sh covers it), and of every
// testdata/*.json spec run with -scenario-file (fault paths no builtin
// reaches): each seeded run is a pure function of its spec, so the bytes
// only move when a simulator, the wire protocol, the timing model or the
// report format does.
func TestScenarioGolden(t *testing.T) {
	for _, name := range []string{"failover-16", "corruption-soak", "chaos-1024", "live-loopback", "live-cluster", "live-cluster-flaps"} {
		checkGolden(t, name, sim16(t, "", "-scenario", name))
	}
	specs, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no testdata/*.json specs: %v", err)
	}
	for _, path := range specs {
		checkGolden(t, strings.TrimSuffix(filepath.Base(path), ".json"), sim16(t, "", "-scenario-file", path))
	}
}

func sim16(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, strings.NewReader(stdin), &out, &errb)
	if err != nil {
		t.Fatalf("edmsim %v: %v (%s)", args, err, errb.String())
	}
	return out.String()
}

// TestEndToEndTraceToSummary is the pipeline test: generate a trace, run it
// through two protocols, and check the summaries are well-formed and
// seed-stable.
func TestEndToEndTraceToSummary(t *testing.T) {
	tr := makeTrace(t, 11)
	for _, proto := range []string{"EDM", "DCTCP"} {
		a := sim16(t, tr, "-protocol", proto, "-nodes", "16")
		b := sim16(t, tr, "-protocol", proto, "-nodes", "16")
		if a != b {
			t.Fatalf("%s: same trace produced different summaries", proto)
		}
		for _, want := range []string{
			`protocol\s+` + proto, `operations\s+400`, "horizon",
			`normalized latency \(all\)`, `normalized latency \(reads\)`,
			`normalized latency \(writes\)`, `absolute latency \(ns\)`,
		} {
			if !regexp.MustCompile(want).MatchString(a) {
				t.Errorf("%s summary missing %q:\n%s", proto, want, a)
			}
		}
	}
	// A different trace seed must change the numbers.
	if sim16(t, tr, "-nodes", "16") == sim16(t, makeTrace(t, 12), "-nodes", "16") {
		t.Fatal("different traces produced identical summaries")
	}
}

func TestEdmsimScenarioMode(t *testing.T) {
	a := sim16(t, "", "-scenario", "failover-16")
	b := sim16(t, "", "-scenario", "failover-16")
	if a != b {
		t.Fatal("scenario mode not deterministic")
	}
	for _, want := range []string{`scenario\s+failover-16`, `backend\s+fabric`, "phase steady", `latency \(ns\)`} {
		if !regexp.MustCompile(want).MatchString(a) {
			t.Errorf("scenario report missing %q:\n%s", want, a)
		}
	}
	// -seed overrides the spec's seed.
	if c := sim16(t, "", "-scenario", "failover-16", "-seed", "99"); c == a {
		t.Fatal("seed override had no effect")
	}
}

func TestEdmsimScenarioFile(t *testing.T) {
	spec := `{
		"name": "file-test", "nodes": 32, "seed": 5, "protocol": "DCTCP",
		"phases": [{"name": "p", "count": 600, "load": 0.5, "read_frac": 0.5, "profile": "fixed64"}],
		"chaos": {"link_flaps": 2}
	}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := sim16(t, "", "-scenario-file", path)
	for _, want := range []string{`scenario\s+file-test`, `protocol\s+DCTCP`, `fault events\s+2`} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestEdmsimListScenarios(t *testing.T) {
	out := sim16(t, "", "-list-scenarios")
	for _, want := range []string{"chaos-1024", "failover-16", "protocol-storm", "corruption-soak"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list-scenarios missing %q:\n%s", want, out)
		}
	}
}

func TestEdmsimErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-protocol", "nope"}, strings.NewReader(""), &out, &errb); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := run(nil, strings.NewReader(""), &out, &errb); err == nil {
		t.Fatal("empty trace accepted")
	}
	if err := run([]string{"-scenario", "nope"}, strings.NewReader(""), &out, &errb); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run([]string{"-scenario", "chaos-1024", "-scenario-file", "x.json"},
		strings.NewReader(""), &out, &errb); err == nil {
		t.Fatal("mutually exclusive scenario flags accepted")
	}
	if err := run([]string{"-scenario", "failover-16", "-protocol", "DCTCP"},
		strings.NewReader(""), &out, &errb); err == nil {
		t.Fatal("trace-mode flag accepted in scenario mode")
	}
	if err := run([]string{"-seed", "7"}, strings.NewReader("0 0 1 64 R\n"), &out, &errb); err == nil {
		t.Fatal("-seed accepted in trace mode")
	}
}
