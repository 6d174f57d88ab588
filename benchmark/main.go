//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

// Command benchmark is the repository's performance benchmark: a latency
// budget for the live stack (wire, rmem, cluster, memctl, telemetry) over
// localhost UDP, the in-process loopback and a loopback cluster. See
// README.md in this directory for the workloads, the metric glossary and
// how to read the output.
//
//	go run ./benchmark                      every workload, the traced pass, the ladder; writes benchmark/out/results.json
//	go run ./benchmark -workload loop-read64 -seed 3 -seconds 10 -trace 0
//	go run ./benchmark -selfcheck           two full sets must agree within the bounds
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
)

func main() {
	cli.Exit("benchmark", run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags, plus three values only the smoke test
// sets (a zero value means the default).
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	selfcheck bool
	compare   bool
	child     string

	reps   int    // repetitions per workload; default repetitions
	slab   uint64 // bytes of remote memory addressed; default defaultSlabBytes
	outDir string // default benchmark/out under the module root
}

// repetitions is R: how many fresh processes measure each workload; their
// median is what is reported.
const repetitions = 5

// run follows the repository's exit conventions (internal/cli): usage
// errors exit 2, runtime errors and failed or mis-verified ops exit 1.
func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload and end with a one-line JSON result (default: the whole suite)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same op stream")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload, split evenly over the 5 repetitions")
	fs.IntVar(&o.trace, "trace", -1, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics (default: suite reports both)")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two full sets and fail if any end-to-end median moves by more than its bound")
	fs.BoolVar(&o.compare, "compare", false, "compare two results.json files given as arguments")
	fs.StringVar(&o.child, "child", "", "internal: run one repetition described by this JSON and print its result")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return cli.ErrFlagParse
	}
	switch {
	case o.child != "":
		return runChildMode(o.child, stdout)
	case o.compare:
		if fs.NArg() != 2 {
			return cli.Usagef("-compare needs two results.json paths")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || (o.trace != -1 && o.trace != 0 && o.trace != 1) {
		return cli.Usagef("-seconds must be > 0, -trace 0 or 1")
	}
	return runHarness(o, stdout, stderr)
}

// runHarness is everything but flag parsing: the smoke test enters here.
func runHarness(o options, stdout, stderr io.Writer) error {
	if o.reps == 0 {
		o.reps = repetitions
	}
	if o.slab == 0 {
		o.slab = defaultSlabBytes
	}
	h, err := newHarness(o, stdout, stderr)
	if err != nil {
		return err
	}
	switch {
	case o.selfcheck:
		return h.selfcheck()
	case o.workload != "":
		return h.single()
	}
	return h.suite()
}

// runChildMode is the body of a repetition process: decode the config, run,
// print the result as the last line of stdout. On SIGINT/SIGTERM it just
// exits: edmd carries Pdeathsig and a lifetime cap.
func runChildMode(cfgJSON string, stdout io.Writer) error {
	var cfg repConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return cli.Usagef("child: bad config: %v", err)
	}
	type outcome struct {
		res repResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		if cfg.Micro {
			o.res, o.err = runMicro(cfg)
		} else {
			o.res, o.err = runRep(cfg)
		}
		done <- o
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case o := <-done:
		if o.err != nil {
			return fmt.Errorf("child %s: %w", cfg.Spec, o.err)
		}
		b, err := json.Marshal(o.res)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", b)
		return err
	case s := <-sig:
		return fmt.Errorf("child %s: %v", cfg.Spec, s)
	}
}

// facts records the machine and the tree a result was measured on.
type facts struct {
	Commit        string `json:"commit"`
	GoVersion     string `json:"go_version"`
	Kernel        string `json:"kernel"`
	NumCPU        int    `json:"nproc"`
	GoMaxProcs    int    `json:"harness_gomaxprocs"`
	Pinned        bool   `json:"pinned"`
	GeneratorCPUs string `json:"generator_cpus"`
	ServerCPUs    string `json:"server_cpus"`
	LoadModel     string `json:"load_model"`
	// The two settings that are not the stack's defaults (README, Findings).
	EdmdArgs    string `json:"edmd_args"`
	ClientRetry string `json:"client_retry"`
}

// harness runs repetitions as child processes and aggregates them.
type harness struct {
	o          options
	stdout     io.Writer
	stderr     io.Writer
	exe        string
	edmdBin    string
	buildS     float64
	outDir     string
	genCPUs    cpuSet
	serverCPUs cpuSet
	facts      facts
	interrupt  chan os.Signal // SIGINT/SIGTERM: kill the running repetition and stop
}

const loadModel = "closed loop: one issuing goroutine keeps the workload's window of ops in flight through the async Read/Write/RMW API; no pacing"

func newHarness(o options, stdout, stderr io.Writer) (*harness, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &harness{o: o, stdout: stdout, stderr: stderr, exe: exe, outDir: o.outDir, interrupt: make(chan os.Signal, 1)}
	signal.Notify(h.interrupt, syscall.SIGINT, syscall.SIGTERM)
	if h.outDir == "" {
		h.outDir = filepath.Join(root, "benchmark", "out")
	}
	if h.edmdBin, h.buildS, err = buildEdmd(filepath.Join(h.outDir, "bin")); err != nil {
		return nil, err
	}
	h.serverCPUs, h.genCPUs = pinPlan()
	h.facts = facts{Commit: commitID(root), GoVersion: runtime.Version(), Kernel: kernelVersion(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Pinned: !h.genCPUs.empty(),
		GeneratorCPUs: h.genCPUs.String(), ServerCPUs: h.serverCPUs.String(), LoadModel: loadModel,
		EdmdArgs:    strings.Join(edmdTuning, " "),
		ClientRetry: fmt.Sprintf("%v x %d retries", retryConfig.RetryTimeout, retryConfig.MaxRetries)}
	return h, nil
}

// childGrace is what a repetition may take beyond its measured seconds
// (set-up, the post-run sweep, sorting samples) before the harness kills it.
const childGrace = 90 * time.Second

// child runs one repetition (or micro pass) of spec in a fresh process,
// pinned to the generator CPUs, under a hard timeout.
func (h *harness) child(spec string, seconds float64, trace, micro bool) (repResult, error) {
	var res repResult
	cfg := repConfig{Spec: spec, Seed: h.o.seed, Seconds: seconds, Trace: trace, Micro: micro,
		Slab: h.o.slab, Warmup: warmupOps, EdmdBin: h.edmdBin, ServerCPUs: h.serverCPUs}
	if trace {
		cfg.TraceFile = filepath.Join(h.outDir, "trace-"+spec+".json")
	}
	cfg.SpawnedAt = time.Now().UnixNano()
	b, err := json.Marshal(cfg)
	if err != nil {
		return res, err
	}
	cmd := exec.Command(h.exe, "-child", string(b))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = h.stderr
	var out strings.Builder
	cmd.Stdout = &out
	if _, err := startPinned(cmd, h.genCPUs); err != nil {
		return res, fmt.Errorf("start repetition of %s: %w", spec, err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	timeout := time.Duration(seconds*float64(time.Second)) + childGrace
	select {
	case err = <-waited:
	case <-time.After(timeout):
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-waited
		return res, fmt.Errorf("repetition of %s hung: killed after %v", spec, timeout)
	case sig := <-h.interrupt:
		// The child's edmd carries Pdeathsig, so it goes with it.
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-waited
		return res, fmt.Errorf("interrupted (%v) during a repetition of %s", sig, spec)
	}
	if err != nil {
		return res, fmt.Errorf("repetition of %s: %w", spec, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("repetition of %s: unreadable result: %w", spec, err)
	}
	return res, nil
}

// summary is one metric over the repetitions of one workload.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Window    int                `json:"window"`
	Transport string             `json:"transport"`
	Reps      []repResult        `json:"repetitions"`
	E2E       map[string]summary `json:"end_to_end"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	NA        []string           `json:"per_layer_not_applicable,omitempty"`
	Traced    *repResult         `json:"traced_repetition,omitempty"`
}

// suiteResult is the results.json document.
type suiteResult struct {
	Facts      facts            `json:"facts"`
	Seed       uint64           `json:"seed"`
	SlabBytes  uint64           `json:"slab_bytes"`
	Reps       int              `json:"repetitions"`
	RepSeconds float64          `json:"seconds_per_repetition"`
	Workloads  []workloadResult `json:"workloads"`
}

func (h *harness) repSeconds() float64 {
	s := h.o.seconds / float64(h.o.reps)
	if s < 0.2 {
		s = 0.2
	}
	return s
}

// measure runs reps repetitions of every named workload, round-robin so a
// slow patch of machine time is shared by all of them, and summarizes.
func (h *harness) measure(names []string) ([]workloadResult, error) {
	out := make([]workloadResult, len(names))
	for i, name := range names {
		sp, _ := findSpec(name)
		out[i] = workloadResult{Name: sp.Name, Why: sp.Why, Transport: sp.Target.transport()}
	}
	for r := 0; r < h.o.reps; r++ {
		for i, name := range names {
			res, err := h.child(name, h.repSeconds(), false, false)
			if err != nil {
				return nil, err
			}
			out[i].Reps = append(out[i].Reps, res)
		}
	}
	for i := range out {
		out[i].summarizeReps()
	}
	return out, nil
}

// summarizeReps fills the workload's summaries from its repetitions.
func (w *workloadResult) summarizeReps() {
	w.E2E = map[string]summary{}
	for _, m := range endToEndShown {
		vals := make([]float64, len(w.Reps))
		for j, r := range w.Reps {
			vals[j] = r.E2E[m.Name]
		}
		w.E2E[m.Name] = summarize(vals)
	}
	w.Attempted, w.Failed = 0, 0
	for _, r := range w.Reps {
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		w.Window = r.Window
	}
	w.FailRatio = ratio(float64(w.Failed), float64(w.Attempted))
}

// maxRungSeconds caps how long each ladder rung measures: they are
// differences of means over ~10^5..10^6 ops, not gated, so short is enough.
const maxRungSeconds = 0.6

func (h *harness) rungSeconds() float64 { return math.Min(maxRungSeconds, h.repSeconds()) }

// runRungs measures every rung spec once and returns ns/op by spec name.
func (h *harness) runRungs() (map[string]float64, error) {
	ns := map[string]float64{}
	for _, name := range rungSpecs {
		res, err := h.child(name, h.rungSeconds(), false, false)
		if err != nil {
			return nil, err
		}
		if res.Failed > 0 {
			return nil, fmt.Errorf("rung %s: %d failures (%s)", name, res.Failed, res.FirstErr)
		}
		ns[name] = res.nsPerOp()
	}
	return ns, nil
}

// layers fills w's per-layer metrics: one traced repetition and one pass of
// direct calls on w's own message mix, joined with the rungs. untracedOps
// is the ops_per_s the traced repetition is compared with.
func (h *harness) layers(w *workloadResult, untracedOps float64, rungNS map[string]float64) error {
	traced, err := h.child(w.Name, h.repSeconds(), true, false)
	if err != nil {
		return err
	}
	micro, err := h.child(w.Name, 0, false, true)
	if err != nil {
		return err
	}
	w.Traced = &traced
	w.Attempted += traced.Attempted
	w.Failed += traced.Failed
	L := map[string]float64{}
	for k, v := range micro.Layer {
		L[k] = v
	}
	// In-process the responder's self time comes from the spans of the real
	// run; only where the server is another process does the direct-call
	// figure stand in.
	for k, v := range traced.Layer {
		L[k] = v
	}
	tracedOps := 1e9 / traced.nsPerOp()
	L["trace.overhead_pct"] = 100 * (untracedOps - tracedOps) / untracedOps
	for _, r := range ladderRungs {
		L[r.Metric] = rungNS[r.Spec]
	}
	L["driver.self_ns_per_op"] = rungNS["rung-null"]
	L["telemetry.full_overhead_ns"] = rungNS["rung-telemetry-full"] - rungNS["loop-read64"]
	L["cluster.route_overhead_ns"] = rungNS["cluster-loop-mixed256"] - rungNS["rung-rmem-mixed256"]
	L["harness.build_s"] = h.buildS
	L[latP95] = w.E2E[latP95].Median
	w.NA = nil
	for _, m := range perLayer {
		if _, ok := L[m.Name]; !ok {
			L[m.Name] = 0
			w.NA = append(w.NA, m.Name)
		}
	}
	w.Layer = L
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// suite is the default command: every workload, the traced pass, the
// ladder, a report and results.json.
func (h *harness) suite() error {
	h.printHeader()
	ws, err := h.measure(workloadNames())
	if err != nil {
		return err
	}
	rungNS, err := h.runRungs()
	if err != nil {
		return err
	}
	for i := range ws {
		if err := h.layers(&ws[i], ws[i].E2E["ops_per_s"].Median, rungNS); err != nil {
			return err
		}
	}
	for i := range ws {
		h.printWorkload(&ws[i])
	}
	h.printLadder(rungNS)
	path, err := h.writeResults(ws)
	if err != nil {
		return err
	}
	fmt.Fprintf(h.stdout, "\nresults: %s   spans: %s\n", path, filepath.Join(h.outDir, "trace-<workload>.json"))
	return failures(ws)
}

func failures(ws []workloadResult) error {
	for _, w := range ws {
		if w.Failed > 0 {
			first := ""
			for _, r := range w.Reps {
				if r.FirstErr != "" {
					first = r.FirstErr
					break
				}
			}
			return fmt.Errorf("%s: %d of %d ops failed or returned wrong data (%s)", w.Name, w.Failed, w.Attempted, first)
		}
	}
	return nil
}

func (h *harness) writeResults(ws []workloadResult) (string, error) {
	doc := suiteResult{Facts: h.facts, Seed: h.o.seed, SlabBytes: h.o.slab,
		Reps: h.o.reps, RepSeconds: h.repSeconds(), Workloads: ws}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(h.outDir, "results.json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// gateLine is the one-line result the benchmark gate reads.
type gateLine struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]gateMetric `json:"metrics"`
}

type gateMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single runs one workload: -trace 0 (or unset) measures the end-to-end
// metrics over the repetitions, -trace 1 the per-layer metrics. The last
// stdout line is the gate's JSON object.
func (h *harness) single() error {
	sp, ok := findSpec(h.o.workload)
	if !ok || strings.HasPrefix(sp.Name, "rung-") {
		return fmt.Errorf("unknown workload %q (have %s)", h.o.workload, strings.Join(workloadNames(), ", "))
	}
	h.printHeader()
	line := gateLine{Metrics: map[string]gateMetric{}}
	var w workloadResult
	if h.o.trace == 1 {
		// One untraced repetition as the base of trace.overhead_pct, then
		// the traced one, the direct calls and the rungs.
		base, err := h.child(sp.Name, h.repSeconds(), false, false)
		if err != nil {
			return err
		}
		rungNS, err := h.runRungs()
		if err != nil {
			return err
		}
		w = workloadResult{Name: sp.Name, Why: sp.Why, Transport: sp.Target.transport(), Reps: []repResult{base}}
		w.summarizeReps()
		if err := h.layers(&w, w.E2E["ops_per_s"].Median, rungNS); err != nil {
			return err
		}
		w.FailRatio = ratio(float64(w.Failed), float64(w.Attempted))
		w.Layer[failRatio] = w.FailRatio
		h.printWorkload(&w)
		h.printLadder(rungNS)
		for _, m := range perLayer {
			line.Metrics[m.Name] = gateMetric{w.Layer[m.Name], m.Unit}
		}
	} else {
		ws, err := h.measure([]string{sp.Name})
		if err != nil {
			return err
		}
		w = ws[0]
		h.printWorkload(&w)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = gateMetric{w.E2E[m.Name].Median, m.Unit}
		}
	}
	line.Attempted, line.Failed, line.Correct = w.Attempted, w.Failed, w.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(h.stdout, "%s\n", b)
	return failures([]workloadResult{w})
}

// selfcheck measures the whole suite twice and fails when any end-to-end
// median differs between the sets by more than its bound.
func (h *harness) selfcheck() error {
	h.printHeader()
	var sets [2][]workloadResult
	for i := range sets {
		ws, err := h.measure(workloadNames())
		if err != nil {
			return err
		}
		if err := failures(ws); err != nil {
			return err
		}
		sets[i] = ws
	}
	rows := compareSets(sets[0], sets[1])
	printCompare(h.stdout, "set 1", "set 2", rows)
	var bad []string
	for _, r := range rows {
		// Same code both times: a median that moved by more than the bound,
		// either way, means the benchmark cannot hold that bound.
		if math.Abs(r.Change) > r.Bound {
			bad = append(bad, r.Workload+"/"+r.Metric)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: medians of two identical sets differ by more than the bound on %s", strings.Join(bad, ", "))
	}
	fmt.Fprintln(h.stdout, "selfcheck: every end-to-end median agrees within its bound")
	return nil
}
