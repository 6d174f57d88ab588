// Command edmsim runs a trace (from cmd/tracegen or a file in the same
// format) through one of the seven protocol models and reports latency
// statistics — the paper artifact's network simulator (§A.5.2) — or runs a
// named/JSON scenario on the scenario runner (multi-phase load, fault
// events, chaos injection; see internal/scenario).
//
// Usage:
//
//	tracegen -profile hadoop | edmsim -protocol EDM
//	edmsim -protocol CXL -trace trace.txt -nodes 144
//	edmsim -scenario chaos-1024
//	edmsim -scenario-file my-scenario.json -seed 7
//	edmsim -list-scenarios
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	cli.Exit("edmsim", run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: flags in, report out.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("edmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	proto := fs.String("protocol", "EDM", "EDM, IRD, pFabric, PFC, DCTCP, CXL or Fastpass")
	traceFile := fs.String("trace", "-", "trace file ('-' = stdin)")
	nodes := fs.Int("nodes", 144, "cluster size (must cover the trace's node ids)")
	bw := fs.Int64("bw", 100, "link bandwidth (Gbps)")
	scenarioName := fs.String("scenario", "", "run a built-in scenario instead of a trace (see -list-scenarios)")
	scenarioFile := fs.String("scenario-file", "", "run a JSON scenario spec instead of a trace")
	seed := fs.Uint64("seed", 0, "override the scenario's seed (0 = keep the spec's)")
	list := fs.Bool("list-scenarios", false, "list built-in scenarios and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return cli.ErrFlagParse
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *list {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		for _, s := range scenario.Builtins() {
			fmt.Fprintf(tw, "%s\t%s, %d nodes\t%s\n", s.Name, s.Backend, s.Nodes, s.Description)
		}
		return tw.Flush()
	}
	if *scenarioName != "" || *scenarioFile != "" {
		// The trace-mode flags would be silently ignored here — the
		// scenario spec owns protocol, cluster size and bandwidth — so
		// reject the conflict instead of running something else.
		for _, name := range []string{"protocol", "nodes", "bw", "trace"} {
			if set[name] {
				return cli.Usagef("-%s does not apply in scenario mode (the spec defines it)", name)
			}
		}
		return runScenario(*scenarioName, *scenarioFile, *seed, stdout)
	}
	if set["seed"] {
		return cli.Usagef("-seed only applies to scenario mode (seed traces with tracegen -seed)")
	}

	p := netsim.ProtocolByName(*proto)
	if p == nil {
		var names []string
		for _, q := range netsim.Protocols() {
			names = append(names, q.Name())
		}
		return cli.Usagef("unknown protocol %q (want one of %v)", *proto, names)
	}

	in := stdin
	if *traceFile != "-" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	ops, err := trace.Read(in)
	if err != nil {
		return err
	}
	if len(ops) == 0 {
		return fmt.Errorf("empty trace")
	}

	cfg := netsim.Config{Nodes: *nodes, Bandwidth: sim.Gbps(*bw)}
	res, err := netsim.RunNormalized(p, cfg, ops)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "protocol\t%s\n", res.Proto)
	fmt.Fprintf(w, "operations\t%d\n", res.Completed)
	fmt.Fprintf(w, "horizon\t%v\n", res.Horizon)
	all := res.NormalizedSummary(nil)
	rd := res.NormalizedSummary(netsim.Reads)
	wr := res.NormalizedSummary(netsim.Writes)
	fmt.Fprintf(w, "normalized latency (all)\tmean %.3f p50 %.3f p99 %.3f\n", all.Mean, all.P50, all.P99)
	if rd.N > 0 {
		fmt.Fprintf(w, "normalized latency (reads)\tmean %.3f p50 %.3f p99 %.3f\n", rd.Mean, rd.P50, rd.P99)
	}
	if wr.N > 0 {
		fmt.Fprintf(w, "normalized latency (writes)\tmean %.3f p50 %.3f p99 %.3f\n", wr.Mean, wr.P50, wr.P99)
	}
	abs := make([]float64, 0, len(res.Ops))
	for _, o := range res.Ops {
		abs = append(abs, o.Latency.Nanoseconds())
	}
	as := stats.Summarize(abs)
	fmt.Fprintf(w, "absolute latency (ns)\tmean %.0f p50 %.0f p99 %.0f\n", as.Mean, as.P50, as.P99)
	return w.Flush()
}

// runScenario resolves and runs a scenario, printing its report.
func runScenario(name, file string, seed uint64, stdout io.Writer) error {
	var spec *scenario.Spec
	switch {
	case name != "" && file != "":
		return cli.Usagef("-scenario and -scenario-file are mutually exclusive")
	case name != "":
		spec = scenario.Builtin(name)
		if spec == nil {
			var names []string
			for _, s := range scenario.Builtins() {
				names = append(names, s.Name)
			}
			return cli.Usagef("unknown scenario %q (want one of %v)", name, names)
		}
	default:
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		spec, err = scenario.Load(f)
		if err != nil {
			return err
		}
	}
	if seed != 0 {
		spec.Seed = seed
	}
	rep, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	return rep.Format(stdout)
}
