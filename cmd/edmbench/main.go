// Command edmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	edmbench -experiment table1|fig5|fig6|fig7|fig8a|fig8b|ablations|incast|all
//	         [-nodes N] [-ops N] [-seed N]
//	edmbench -snapshot BENCH_1.json [-count N] [-benchtime T]
//
// Output is textual rows matching the paper's presentation; README's
// Experiment map lists each artifact and what checks it. -snapshot instead
// runs the wire/rmem Go benchmarks and records them as JSON (the
// BENCH_N.json perf trajectory). A snapshot is a record, not a gate: CI's
// bench-gate job pairs the head against its base on one host with
// scripts/bench_ab.sh -c.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/edm"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	cli.Exit("edmbench", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags in, report out.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("edmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "all", "which experiment to run")
	nodes := fs.Int("nodes", 144, "cluster size for fig8 simulations")
	ops := fs.Int("ops", 20000, "operations per simulation run")
	seed := fs.Uint64("seed", 1, "trace seed")
	fig7ops := fs.Int("fig7ops", 400, "YCSB operations per fig7 ratio")
	snapshot := fs.String("snapshot", "", "run the wire/rmem benchmarks and write a JSON snapshot to this file")
	count := fs.Int("count", 1, "with -snapshot: benchmark repetitions; the snapshot records the best of N")
	benchtime := fs.String("benchtime", "", "with -snapshot: -benchtime passed to go test (e.g. 100ms)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return cli.ErrFlagParse
	}

	if *snapshot != "" {
		return runSnapshot(*snapshot, *count, *benchtime, stdout, stderr)
	}

	cfg := experiments.Fig8Config{Nodes: *nodes, OpsPerRun: *ops, Seed: *seed}

	runners := map[string]func(io.Writer) error{
		"table1":    table1,
		"fig5":      fig5,
		"fig6":      fig6,
		"fig7":      func(w io.Writer) error { return fig7(w, *fig7ops) },
		"fig8a":     func(w io.Writer) error { return fig8a(w, cfg) },
		"fig8b":     func(w io.Writer) error { return fig8b(w, cfg) },
		"ablations": func(w io.Writer) error { return ablations(w, cfg) },
		"incast":    incast,
	}
	order := []string{"table1", "fig5", "fig6", "fig7", "fig8a", "fig8b", "ablations", "incast"}

	if *exp == "all" {
		for _, name := range order {
			fmt.Fprintf(stdout, "\n================ %s ================\n", name)
			if err := runners[name](stdout); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	runExp, ok := runners[*exp]
	if !ok {
		return cli.Usagef("unknown experiment %q (want one of %v or all)", *exp, order)
	}
	return runExp(stdout)
}

func tab(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

func table1(out io.Writer) error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	w := tab(out)
	fmt.Fprintln(w, "Stack\tOp\tNetwork stack\tTotal fabric\tPaper\tMeasured (block-level)\tvs EDM")
	for _, r := range rows {
		op := "read"
		if r.Write {
			op = "write"
		}
		measured := "-"
		if r.Measured != 0 {
			measured = r.Measured.String()
		}
		fmt.Fprintf(w, "%v\t%s\t%v\t%v\t%v\t%s\t%.1fx\n",
			r.Stack, op, r.StackTotal, r.Total, r.PaperTotal, measured, r.Ratio())
	}
	return w.Flush()
}

func fig5(out io.Writer) error {
	w := tab(out)
	fmt.Fprintln(w, "Location\tOp\tStage\tCycles\tTime")
	for _, s := range experiments.Fig5() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%v\n", s.Location, s.Op, s.Name, s.Cycles, s.Time)
	}
	rc, wc := experiments.Fig5Totals()
	fmt.Fprintf(w, "\t\tpipeline total (excl. serialization/links)\tread=%d write=%d\t%v / %v\n",
		rc, wc, sim.Time(rc)*edm.BlockPeriod, sim.Time(wc)*edm.BlockPeriod)
	return w.Flush()
}

func fig6(out io.Writer) error {
	w := tab(out)
	fmt.Fprintln(w, "Workload\tEDM (Mreq/s)\tRDMA (Mreq/s)\tEDM/RDMA")
	for _, r := range experiments.Fig6() {
		fmt.Fprintf(w, "%v\t%.1f\t%.1f\t%.2fx\n", r.Workload, r.EDMMrps, r.RDMAMrps, r.Ratio)
	}
	return w.Flush()
}

func fig7(out io.Writer, ops int) error {
	rows, err := experiments.Fig7(ops)
	if err != nil {
		return err
	}
	w := tab(out)
	fmt.Fprintln(w, "Local:Remote\tEDM (ns)\tpaper\tCXL (ns)\tpaper\tRDMA (ns)\tpaper")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.Label, r.EDMNanos, r.PaperEDM, r.CXLNanos, r.PaperCXL, r.RDMANanos, r.PaperRDMA)
	}
	return w.Flush()
}

func fig8a(out io.Writer, cfg experiments.Fig8Config) error {
	rows, err := experiments.Fig8a(cfg)
	if err != nil {
		return err
	}
	w := tab(out)
	fmt.Fprintln(w, "Protocol\tLoad\tReads (norm)\tWrites (norm)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.3f\t%.3f\n", r.Proto, r.Load, r.ReadsNorm, r.WritesNorm)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nMixed write:read at load 0.8:")
	mix, err := experiments.Fig8aMix(cfg)
	if err != nil {
		return err
	}
	w = tab(out)
	fmt.Fprintln(w, "Protocol\tWrite:Read\tNormalized latency")
	for _, r := range mix {
		fmt.Fprintf(w, "%s\t%.0f:%.0f\t%.3f\n", r.Proto, r.WriteFrac*100, (1-r.WriteFrac)*100, r.Norm)
	}
	return w.Flush()
}

func fig8b(out io.Writer, cfg experiments.Fig8Config) error {
	rows, err := experiments.Fig8b(cfg)
	if err != nil {
		return err
	}
	w := tab(out)
	fmt.Fprintln(w, "Application\tProtocol\tNormalized MCT\tAbsolute mean MCT")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.0fns\n", r.App, r.Proto, r.NormMCT, r.AbsMeanNs)
	}
	return w.Flush()
}

func ablations(out io.Writer, cfg experiments.Fig8Config) error {
	rows, err := experiments.Ablations(cfg)
	if err != nil {
		return err
	}
	w := tab(out)
	fmt.Fprintln(w, "Ablation\tValue\tNormalized latency/MCT")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3f\n", r.Param, r.Value, r.Norm)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nIntra-frame preemption (block-level testbed):")
	pre, err := experiments.AblationPreemption()
	if err != nil {
		return err
	}
	w = tab(out)
	fmt.Fprintln(w, "Mux policy\tMean 64B read\tMax 64B read")
	for _, p := range pre {
		fmt.Fprintf(w, "%s\t%.0fns\t%.0fns\n", p.Policy, p.MeanReadNs, p.MaxReadNs)
	}
	return w.Flush()
}

func incast(out io.Writer) error {
	rows, err := experiments.Incast(16, 50)
	if err != nil {
		return err
	}
	w := tab(out)
	fmt.Fprintln(w, "Protocol\tMean norm\tP99 norm")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\n", r.Proto, r.MeanNorm, r.P99Norm)
	}
	return w.Flush()
}
