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
// best-of-N per metric and writes the snapshot to outPath.
func runSnapshot(outPath string, count int, benchtime string, stdout, stderr io.Writer) error {
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
