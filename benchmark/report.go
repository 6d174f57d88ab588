//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// quartiles follows Python's statistics.quantiles(values, n=4) (the
// exclusive method), the rule the benchmark gate applies to the same
// numbers. Fewer than two values have no spread.
func quartiles(sorted []float64) (q1, q3 float64) {
	m := len(sorted)
	if m < 2 {
		if m == 1 {
			return sorted[0], sorted[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - 4*j
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func median(sorted []float64) float64 {
	m := len(sorted)
	switch {
	case m == 0:
		return 0
	case m%2 == 1:
		return sorted[m/2]
	}
	return (sorted[m/2-1] + sorted[m/2]) / 2
}

func summarize(vals []float64) summary {
	s := slices.Clone(vals)
	slices.Sort(s)
	q1, q3 := quartiles(s)
	return summary{Median: median(s), Q1: q1, Q3: q3, Values: vals}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	return ratio(s.Q3-s.Q1, math.Abs(s.Median))
}

func (h *harness) printHeader() {
	f := h.facts
	fmt.Fprintf(h.stdout, "EDM live-stack benchmark: commit %s, %s, linux %s, nproc %d\n", f.Commit, f.GoVersion, f.Kernel, f.NumCPU)
	fmt.Fprintf(h.stdout, "load model: %s\n", f.LoadModel)
	if f.Pinned {
		fmt.Fprintf(h.stdout, "pinning: in effect (sched_setaffinity): generator on CPU %s, edmd on CPU %s; each sizes GOMAXPROCS from its mask\n", f.GeneratorCPUs, f.ServerCPUs)
	} else {
		fmt.Fprintf(h.stdout, "pinning: none (one CPU): edmd and the generator share the scheduler\n")
	}
	fmt.Fprintf(h.stdout, "not the stack's defaults: edmd %s; clients retry after %s (README, Findings)\n", f.EdmdArgs, f.ClientRetry)
	fmt.Fprintf(h.stdout, "seed %d, slab %d MiB, %d repetitions x %.2f s measured, each in a fresh process; medians and quartiles over repetitions\n",
		h.o.seed, h.o.slab>>20, h.o.reps, h.repSeconds())
}

func (h *harness) printWorkload(w *workloadResult) {
	fmt.Fprintf(h.stdout, "\nworkload %s: closed loop, window %d, %s\n  why: %s\n", w.Name, w.Window, w.Transport, w.Why)
	if len(w.Reps) > 0 {
		r := w.Reps[0]
		fmt.Fprintf(h.stdout, "  generator CPUs %s (GOMAXPROCS %d)", r.GenCPUs, r.GoMaxProcs)
		if r.ServerCPUs != "" {
			fmt.Fprintf(h.stdout, ", edmd CPUs %s", r.ServerCPUs)
		}
		fmt.Fprintf(h.stdout, "; latency samples per repetition:")
		for _, r := range w.Reps {
			fmt.Fprintf(h.stdout, " %d", r.Samples)
		}
		fmt.Fprintln(h.stdout)
	}
	tw := tabwriter.NewWriter(h.stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  end-to-end\tunit\tbetter\tbound\tmedian\tq1\tq3\tspread")
	for _, m := range endToEndShown {
		s := w.E2E[m.Name]
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%.0f%%\t%.6g\t%.6g\t%.6g\t%.1f%%\n",
			m.Name, m.Unit, m.Better, 100*m.Bound, s.Median, s.Q1, s.Q3, 100*s.spread())
	}
	fmt.Fprintf(tw, "  %s\tratio\tlower\t0 (absolute)\t%.6g\t\t\t(%d failed of %d attempted)\n", failRatio, w.FailRatio, w.Failed, w.Attempted)
	tw.Flush()
	if w.Layer == nil {
		return
	}
	na := map[string]bool{}
	for _, n := range w.NA {
		na[n] = true
	}
	tw = tabwriter.NewWriter(h.stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  per-layer\tunit\tvalue")
	for _, m := range perLayer {
		if na[m.Name] {
			fmt.Fprintf(tw, "  %s\t%s\tn/a\n", m.Name, m.Unit)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\n", m.Name, m.Unit, w.Layer[m.Name])
	}
	tw.Flush()
}

// printLadder prints the stacked table: ns/op of the loop-read64 op stream
// at each depth of the stack, and what each step down added.
func (h *harness) printLadder(rungNS map[string]float64) {
	fmt.Fprintf(h.stdout, "\nladder: ns/op for the loop-read64 op stream (64 B reads, window 1) at each depth; %.1f s per rung\n", h.rungSeconds())
	tw := tabwriter.NewWriter(h.stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  rung\tns/op\tadded over\tns")
	val := map[string]float64{}
	for _, r := range ladderRungs {
		val[r.Metric] = rungNS[r.Spec]
		if r.Over == "" {
			fmt.Fprintf(tw, "  %s\t%.1f\t\t\n", r.Metric, val[r.Metric])
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.1f\t%s\t%+.1f\n", r.Metric, val[r.Metric], r.Over, val[r.Metric]-val[r.Over])
	}
	tw.Flush()
}

// compareRow is one workload x metric line of a comparison.
type compareRow struct {
	Workload, Metric string
	A, B             summary
	Bound            float64
	Change           float64 // relative change of the median, positive = worse
	Verdict          string  // same, better, worse, unresolved
}

// compareSets judges set b against set a, metric by metric, by the rule of
// the choosing-metrics guide: a median that moved by more than the bound is
// better or worse; when either side's own spread exceeds the bound the row
// is unresolved, unless every run of one side beats every run of the other.
func compareSets(a, b []workloadResult) []compareRow {
	var rows []compareRow
	for _, wa := range a {
		for _, wb := range b {
			if wa.Name != wb.Name {
				continue
			}
			for _, m := range endToEndShown {
				sa, sb := wa.E2E[m.Name], wb.E2E[m.Name]
				row := compareRow{Workload: wa.Name, Metric: m.Name, A: sa, B: sb, Bound: m.Bound}
				row.Change = ratio(sb.Median-sa.Median, sa.Median)
				if m.Better == "higher" {
					row.Change = -row.Change
				}
				switch {
				case math.Abs(row.Change) <= m.Bound:
					row.Verdict = "same"
				case row.Change > 0:
					row.Verdict = "worse"
				default:
					row.Verdict = "better"
				}
				if math.Max(sa.spread(), sb.spread()) > m.Bound && !disjoint(sa.Values, sb.Values) {
					row.Verdict = "unresolved"
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// disjoint reports whether every value of one side lies beyond every value
// of the other.
func disjoint(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
}

func printCompare(w io.Writer, nameA, nameB string, rows []compareRow) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s median\t(spread)\t%s median\t(spread)\t%s/%s\tbound\tverdict\n", nameA, nameB, nameB, nameA)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t(%.1f%%)\t%.6g\t(%.1f%%)\t%.4f\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.A.Median, 100*r.A.spread(), r.B.Median, 100*r.B.spread(),
			ratio(r.B.Median, r.A.Median), 100*r.Bound, r.Verdict)
	}
	tw.Flush()
}

func loadResults(path string) (suiteResult, error) {
	var doc suiteResult
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints one row per workload x end-to-end metric of two
// results.json files, b relative to a.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (commit %s, seed %d, %d x %.2f s)\nb: %s (commit %s, seed %d, %d x %.2f s)\n",
		pathA, a.Facts.Commit, a.Seed, a.Reps, a.RepSeconds, pathB, b.Facts.Commit, b.Seed, b.Reps, b.RepSeconds)
	rows := compareSets(a.Workloads, b.Workloads)
	if len(rows) == 0 {
		return fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	printCompare(w, "a", "b", rows)
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name == wb.Name && wb.FailRatio > wa.FailRatio {
				fmt.Fprintf(w, "%s: fail_ratio rose from %g to %g: worse (absolute bound 0)\n", wa.Name, wa.FailRatio, wb.FailRatio)
			}
		}
	}
	return nil
}
