package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchPackages are the hot-path packages whose Go benchmarks the snapshot
// captures: the wire codec/transport and the rmem client/server round trip.
var benchPackages = []string{"repro/internal/wire", "repro/internal/rmem", "repro/internal/telemetry"}

// Benchmark is one `go test -bench` result line.
type Benchmark struct {
	Name    string             `json:"name"` // e.g. BenchmarkEncode/64B (GOMAXPROCS suffix stripped)
	Pkg     string             `json:"pkg"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"` // unit -> value, e.g. "ns/op": 312.5
}

// Snapshot is the BENCH_N.json schema: enough to compare perf trajectory
// across PRs without re-running older trees.
type Snapshot struct {
	Go string `json:"go"`
	// Count is how many repetitions each benchmark ran; the recorded
	// metrics are the best of the N (min for /op units, max for /s), which
	// suppresses one-off scheduler noise in the snapshot.
	Count      int         `json:"count,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// runSnapshot benchmarks the hot-path packages count times, records the
// best-of-N per metric, writes the snapshot to outPath, and (with a
// baseline) prints the delta table. A positive threshold additionally turns
// the baseline comparison into a gate: key metrics regressing beyond
// threshold percent make it return an error (nonzero exit).
func runSnapshot(outPath, baselinePath string, count int, benchtime string, threshold float64, stdout, stderr io.Writer) error {
	if count < 1 {
		count = 1
	}
	args := []string{"test", "-run", "^$", "-bench", ".", "-benchmem", "-count", strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	cmd := exec.Command("go", append(args, benchPackages...)...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("edmbench: bench run: %w", err)
	}
	snap := Snapshot{Go: runtime.Version(), Count: count, Benchmarks: parseBench(string(out))}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("edmbench: no benchmark lines in go test output")
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d benchmarks to %s (count=%d, best-of-N)\n", len(snap.Benchmarks), outPath, count)
	if baselinePath == "" {
		return nil
	}
	old, err := loadSnapshot(baselinePath)
	if err != nil {
		return err
	}
	if err := printDelta(stdout, old, snap); err != nil {
		return err
	}
	if threshold <= 0 {
		return nil
	}
	if err := checkThreshold(old, snap, threshold); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bench gate: key metrics within %.0f%% of baseline\n", threshold)
	return nil
}

// parseBench extracts benchmark results from `go test -bench` output. The
// text format interleaves per-package headers (`pkg: repro/internal/wire`)
// with result lines (`BenchmarkEncode/64B-8   123456   312.5 ns/op   ...`).
func parseBench(out string) []Benchmark {
	var benches []Benchmark
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		// Strip the trailing -GOMAXPROCS so snapshots from different machines
		// key identically.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := Benchmark{Name: name, Pkg: pkg, Iters: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = v
		}
		benches = append(benches, b)
	}
	benches = mergeRuns(benches)
	sort.Slice(benches, func(i, j int) bool {
		if benches[i].Pkg != benches[j].Pkg {
			return benches[i].Pkg < benches[j].Pkg
		}
		return benches[i].Name < benches[j].Name
	})
	return benches
}

// mergeRuns folds repeated runs of the same benchmark (-count > 1) into one
// best-of-N entry: cost metrics (/op suffixed) keep their minimum, rate
// metrics (/s suffixed) their maximum. The minimum of a cost metric is the
// least-noisy observation — the run with the fewest scheduler/GC intrusions.
func mergeRuns(benches []Benchmark) []Benchmark {
	seen := make(map[string]int)
	var out []Benchmark
	for _, b := range benches {
		key := b.Pkg + " " + b.Name
		i, ok := seen[key]
		if !ok {
			seen[key] = len(out)
			out = append(out, b)
			continue
		}
		prev := &out[i]
		if b.Iters > prev.Iters {
			prev.Iters = b.Iters
		}
		for unit, v := range b.Metrics {
			old, had := prev.Metrics[unit]
			switch {
			case !had:
				prev.Metrics[unit] = v
			case strings.HasSuffix(unit, "/s"):
				if v > old {
					prev.Metrics[unit] = v
				}
			default: // ns/op, B/op, allocs/op, ...
				if v < old {
					prev.Metrics[unit] = v
				}
			}
		}
	}
	return out
}

func loadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("edmbench: %s: %w", path, err)
	}
	return s, nil
}

// printDelta compares ns/op and allocs/op against a baseline snapshot.
func printDelta(out io.Writer, old, cur Snapshot) error {
	byKey := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		byKey[b.Pkg+" "+b.Name] = b
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tns/op\tbaseline\tdelta\tallocs/op\tbaseline")
	for _, b := range cur.Benchmarks {
		o, ok := byKey[b.Pkg+" "+b.Name]
		if !ok {
			fmt.Fprintf(w, "%s\t%.1f\t-\tnew\t%.0f\t-\n", b.Name, b.Metrics["ns/op"], b.Metrics["allocs/op"])
			continue
		}
		ns, ons := b.Metrics["ns/op"], o.Metrics["ns/op"]
		delta := "-"
		if ons > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(ns-ons)/ons)
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%s\t%.0f\t%.0f\n",
			b.Name, ns, ons, delta, b.Metrics["allocs/op"], o.Metrics["allocs/op"])
	}
	return w.Flush()
}

// gated reports whether a benchmark's metrics are regression-gated: the
// round-trip latency and pipelined throughput benches are the repo's key
// perf indicators (ROADMAP "Performance"), everything else is informational.
func gated(name string) bool {
	return strings.Contains(name, "RoundTrip") ||
		strings.Contains(name, "Pipelined")
}

// checkThreshold is the bench gate: on the gated benchmarks, ns/op and
// allocs/op may not rise — and ops/s may not fall — by more than pct percent
// versus the baseline. An allocation-free baseline (allocs/op == 0) is a
// hard invariant: any new allocation fails regardless of pct. A gated
// baseline benchmark that disappeared also fails, so the gate cannot be
// dodged by deleting the benchmark.
func checkThreshold(old, cur Snapshot, pct float64) error {
	byKey := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		byKey[b.Pkg+" "+b.Name] = b
	}
	curKeys := make(map[string]bool, len(cur.Benchmarks))
	var fails []string
	for _, b := range cur.Benchmarks {
		curKeys[b.Pkg+" "+b.Name] = true
		if !gated(b.Name) {
			continue
		}
		o, ok := byKey[b.Pkg+" "+b.Name]
		if !ok {
			continue // new benchmark: no baseline yet
		}
		worse := func(metric string, newV, oldV float64) {
			fails = append(fails, fmt.Sprintf("%s %s: %.4g -> %.4g (limit %.0f%%)",
				b.Name, metric, oldV, newV, pct))
		}
		for _, metric := range []string{"ns/op", "allocs/op"} {
			nv, okN := b.Metrics[metric]
			ov, okO := o.Metrics[metric]
			if !okN || !okO {
				continue
			}
			if metric == "allocs/op" && ov == 0 {
				if nv > 0.5 {
					fails = append(fails, fmt.Sprintf("%s allocs/op: baseline is allocation-free, now %.4g", b.Name, nv))
				}
				continue
			}
			if ov > 0 && nv > ov*(1+pct/100) {
				worse(metric, nv, ov)
			}
		}
		if nv, okN := b.Metrics["ops/s"]; okN {
			if ov, okO := o.Metrics["ops/s"]; okO && ov > 0 && nv < ov*(1-pct/100) {
				worse("ops/s", nv, ov)
			}
		}
	}
	for _, o := range old.Benchmarks {
		if gated(o.Name) && !curKeys[o.Pkg+" "+o.Name] {
			fails = append(fails, fmt.Sprintf("%s: gated benchmark missing from this run", o.Name))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("bench gate: %d key-metric regression(s) beyond %.0f%%:\n  %s",
			len(fails), pct, strings.Join(fails, "\n  "))
	}
	return nil
}
