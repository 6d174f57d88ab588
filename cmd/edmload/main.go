// Command edmload replays a trace (from cmd/tracegen or a file in the same
// format) or a generated workload against a live disaggregated-memory
// endpoint — a cmd/edmd daemon over UDP, or an in-process loopback server —
// and reports latency percentiles in the same rows cmd/edmsim prints, so
// simulated and measured latencies compare directly.
//
// Every target — the loopback, one edmd (-addr), a dual-homed cluster of
// them (-cluster) — is an rmem.Memory driven by the same rmem.Replay: one
// issuing goroutine keeps -window ops in flight through the async API and
// issues the next as soon as a slot frees (closed loop), or, with -rate,
// issues op i at i/rate and sheds it when no slot is free at that instant
// (open loop; shed ops are counted, never queued). Writes carry an
// address-derived pattern and every read is checked against it; a read
// that returns anything else counts as failed and shows as "mismatched N".
// A cluster run ends with one re-mirror pass once the replay has returned
// (no op in flight): the copies every eviction owes, reported on the
// "cluster faults" row; a failed pass exits non-zero.
//
// Against the loopback endpoint the run is deterministic: arrivals are
// replayed on the transport's virtual clock at window 1 and every latency
// is a pure function of the datagram sizes exchanged, so a fixed seed
// yields a byte-identical report.
//
// Usage:
//
//	tracegen -profile memcached -nodes 16 | edmload            # loopback
//	edmload -profile fixed64 -count 5000 -seed 7               # generated
//	edmload -addr 127.0.0.1:7979 -trace t.txt -window 32       # live edmd
//	edmload -addr 127.0.0.1:7979 -profile fixed64 -rate 50000  # paced
//	edmload -cluster h:1,h:2,h:3,h:4 -profile memcached        # cluster
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/rmem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	cli.Exit("edmload", run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: flags in, report out.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("edmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "live endpoint (host:port of an edmd; empty = in-process loopback server)")
	clusterAddrs := fs.String("cluster", "", "comma-separated edmd addresses: drive the sharded dual-homed cluster service over UDP")
	metricsAddr := fs.String("metrics", "", "cluster mode: HTTP address serving the client-side /metrics (empty = off)")
	traceFile := fs.String("trace", "-", "trace file ('-' = stdin)")
	profile := fs.String("profile", "", "generate a workload instead of reading a trace: hadoop, spark, sparksql, graphlab, memcached, fixed64")
	nodes := fs.Int("nodes", 16, "generated workload: cluster size")
	load := fs.Float64("load", 0.5, "generated workload: offered load (0,1]")
	count := fs.Int("count", 2000, "generated workload: operations")
	readFrac := fs.Float64("readfrac", 0.5, "generated workload: fraction of reads")
	bw := fs.Int64("bw", 100, "generated workload: link bandwidth (Gbps)")
	seed := fs.Uint64("seed", 1, "PRNG seed (addresses, generated workload)")
	window := fs.Int("window", 1, "outstanding-operation window (pipelining depth; live mode)")
	rate := fs.Float64("rate", 0, "target issue rate in ops/s (live mode; 0 = closed loop)")
	slab := fs.Int64("slab", 64<<20, "loopback server: slab size in bytes")
	defaults := wire.DefaultConnConfig()
	retry := fs.Duration("retry", defaults.RetryTimeout, "per-attempt retransmission timeout")
	retries := fs.Int("retries", defaults.MaxRetries, "max retransmissions per operation")
	progress := fs.Duration("progress", 0, "print progress every interval (stderr; loopback counts on the virtual clock)")
	traceOps := fs.Int("trace-ops", 0, "keep and dump the last N per-op trace records (stderr)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return cli.ErrFlagParse
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *profile == "" {
		for _, name := range []string{"nodes", "load", "count", "readfrac", "bw"} {
			if set[name] {
				return cli.Usagef("-%s only applies with -profile (trace mode reads the trace as-is)", name)
			}
		}
	} else if set["trace"] {
		return cli.Usagef("-trace and -profile are mutually exclusive")
	}
	if *clusterAddrs != "" {
		if *addr != "" {
			return cli.Usagef("-addr and -cluster are mutually exclusive")
		}
		if len(strings.Split(*clusterAddrs, ",")) < 2 {
			return cli.Usagef("-cluster needs at least two addresses, got %q", *clusterAddrs)
		}
		if set["trace-ops"] {
			return cli.Usagef("-trace-ops does not apply to cluster mode (the trace ring follows one connection)")
		}
		// A routed op can put two datagrams on one node, and a node client's
		// window stops at rmem.MaxWindow: deeper pipelining would fail ops at
		// issue and report them as lost.
		if *window > rmem.MaxWindow/2 {
			return cli.Usagef("-window must be at most %d with -cluster, got %d", rmem.MaxWindow/2, *window)
		}
	} else if set["metrics"] {
		return cli.Usagef("-metrics only applies with -cluster")
	}
	if *clusterAddrs != "" || *addr != "" {
		if set["slab"] {
			return cli.Usagef("-slab only applies to the loopback endpoint (a live server owns its geometry)")
		}
	} else {
		// The loopback replay is strictly closed-loop at depth 1 on the
		// virtual clock; accepting pacing/pipelining flags would silently
		// mislabel the report.
		for _, name := range []string{"rate", "window"} {
			if set[name] {
				return cli.Usagef("-%s only applies to a live endpoint (the loopback replay is closed-loop on the virtual clock)", name)
			}
		}
	}
	if *window < 1 || *window > rmem.MaxWindow {
		return cli.Usagef("-window must be in [1, %d], got %d", rmem.MaxWindow, *window)
	}
	if *rate < 0 {
		return cli.Usagef("-rate must not be negative")
	}

	// Assemble the op stream.
	var ops []workload.Op
	var source string
	if *profile != "" {
		sizes, err := workload.SizeDistByName(*profile)
		if err != nil {
			return cli.UsageError{S: err.Error()}
		}
		ops, err = workload.Generate(workload.GenConfig{
			Nodes: *nodes, Load: *load, Bandwidth: sim.Gbps(*bw),
			Sizes: sizes, ReadFrac: *readFrac, Count: *count, Seed: *seed,
		})
		if err != nil {
			return err
		}
		source = fmt.Sprintf("generated %s (%d ops, seed %d)", *profile, *count, *seed)
	} else {
		in := stdin
		if *traceFile != "-" {
			f, err := os.Open(*traceFile)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		var err error
		ops, err = trace.Read(in)
		if err != nil {
			return err
		}
		source = fmt.Sprintf("trace %s (%d ops)", *traceFile, len(ops))
	}
	if len(ops) == 0 {
		return fmt.Errorf("empty trace")
	}

	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1 // flag 0 means none; the config's zero means default
	}
	ccfg := rmem.ClientConfig{
		Window: *window,
		Retry:  wire.ConnConfig{RetryTimeout: *retry, MaxRetries: maxRetries},
	}
	if *traceOps > 0 {
		ccfg.Trace = telemetry.NewTraceRing(*traceOps)
	}

	// Assemble the endpoint. From here on the three targets differ only in
	// which handles of t are set.
	var t target
	var err error
	switch {
	case *clusterAddrs != "":
		t, err = dialCluster(strings.Split(*clusterAddrs, ","), *seed, *metricsAddr, ccfg, stdout)
	case *addr != "":
		t, err = dial([]string{*addr}, ccfg)
	default:
		t, err = openLoopback(*slab, ccfg)
	}
	if err != nil {
		return err
	}
	defer t.close()
	ops, addrs, err := targets(ops, *seed, t.size)
	if err != nil {
		return err
	}

	// The run's clock: the loopback's virtual one, with arrivals replayed at
	// the trace's timestamps, or wall time since the first issue.
	rc := rmem.ReplayConfig{Window: *window}
	if t.lb != nil {
		rc.Now = t.lb.Now
		rc.Before = func(i int) { t.lb.AdvanceTo(ops[i].Arrival) }
	} else {
		start := time.Now()
		rc.Now = func() sim.Time { return sim.Time(time.Since(start)) * sim.Nanosecond }
		rc.WaitUntil = func(due sim.Time) { time.Sleep(time.Duration((due - rc.Now()) / sim.Nanosecond)) }
		if *rate > 0 {
			rc.Interval = sim.Time(float64(1000*sim.Millisecond) / *rate)
		}
	}
	stopProgress := func() {}
	if *progress > 0 {
		stopProgress = startProgress(&t, &rc, *progress, len(ops), stderr)
	}
	results := rmem.Replay(t.mem, ops, addrs, rc)
	stopProgress()
	horizon := rc.Now()
	// The cluster re-mirrors what its evictions owe only now: a pass that
	// runs while routed writes land can overwrite them on the new holders.
	var remirrorErr error
	if t.cc != nil {
		if t.remirror, remirrorErr = t.cc.Rebalance(); remirrorErr != nil {
			remirrorErr = fmt.Errorf("cluster re-mirror: %w", remirrorErr)
		}
	}
	if err := report(stdout, &t, source, ops, results, horizon); err != nil {
		return err
	}
	if ccfg.Trace != nil {
		for _, r := range ccfg.Trace.SnapshotRecords() {
			fmt.Fprintf(stderr, "edmload: traceop seq=%d id=%d stage=%s kind=%s ts=%dns arg=%d\n",
				r.Seq, r.ID, r.Stage, wire.Kind(r.Op), r.TS, r.Arg)
		}
	}
	return remirrorErr
}

// target is an assembled endpoint: the memory the replay drives, the node
// connections behind it, and whichever of the optional handles it has.
type target struct {
	endpoint string
	clock    string // what the run's clock reads: "virtual" or "elapsed"
	mem      rmem.Memory
	conns    []*rmem.Client
	metrics  *rmem.ClientMetrics    // what every one of conns counts on
	udps     []*wire.UDPClient      // udp: the sockets under conns
	size     uint64                 // addressable bytes
	lb       *wire.Loopback         // loopback: the transport whose virtual clock times the run
	srv      *rmem.ServerMetrics    // loopback: the in-process server's counters
	cc       *cluster.Client        // cluster: the router in front of conns
	remirror cluster.RebalanceStats // cluster: the re-mirror pass after the replay
	close    func()
}

// stamp renders a reading of the run's clock: virtual time in sim.Time's
// units, wall time as a time.Duration.
func (t *target) stamp(now sim.Time) string {
	if t.lb != nil {
		return now.String()
	}
	return time.Duration(now / sim.Nanosecond).String()
}

// startProgress hooks progress lines into the replay and returns the func
// that ends them. Outcomes are counted as they land, in the report's terms.
// The loopback prints from the op that carries its virtual clock across an
// interval, so its lines are as deterministic as its report; a wall-clock
// run prints from a ticker, so a window stuck in retries, or a paced run
// shedding every op, still reports.
func startProgress(t *target, rc *rmem.ReplayConfig, every time.Duration, total int, stderr io.Writer) (stop func()) {
	var done, failed, shed atomic.Int64
	line := func() {
		fmt.Fprintf(stderr, "edmload: progress done %d failed %d shed %d of %d, retransmits %d, %s %s\n",
			done.Load(), failed.Load(), shed.Load(), total,
			t.metrics.Conn.Retransmits.Load(), t.clock, t.stamp(rc.Now()))
	}
	next := sim.Time(every) * sim.Nanosecond
	rc.After = func(_ int, r rmem.OpResult) {
		switch {
		case r.Shed:
			shed.Add(1)
		case r.Err != nil:
			failed.Add(1)
		default:
			done.Add(1)
		}
		if t.lb != nil && rc.Now() >= next {
			line()
			for next <= rc.Now() {
				next += sim.Time(every) * sim.Nanosecond
			}
		}
	}
	if t.lb != nil {
		return func() {}
	}
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				line()
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// openLoopback builds an in-process server behind the loopback transport.
// Latency histograms and trace timestamps read its virtual clock, so the
// whole run — telemetry included — is deterministic for a fixed seed.
func openLoopback(slab int64, ccfg rmem.ClientConfig) (target, error) {
	if slab <= 0 {
		return target{}, cli.Usagef("-slab must be positive, got %d", slab)
	}
	srv, err := rmem.NewServer(rmem.ServerConfig{Geometry: rmem.Geometry{SlabBytes: uint64(slab)}})
	if err != nil {
		return target{}, cli.UsageError{S: err.Error()}
	}
	lb := wire.NewLoopback(wire.LoopbackConfig{})
	ccfg.NowNS = func() int64 { return int64(lb.Now() / sim.Nanosecond) }
	client := rmem.NewClient(lb.ClientPipe(), ccfg)
	lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
	lb.BindClient(client.Deliver)
	if err := client.Connect(); err != nil {
		return target{}, err
	}
	return target{endpoint: "loopback (virtual clock)", clock: "virtual",
		mem: client, conns: []*rmem.Client{client}, metrics: client.Metrics(), size: srv.Geometry().SlabBytes,
		lb: lb, srv: srv.Metrics(), close: func() { client.Close() }}, nil
}

// dial connects one client per edmd address over UDP, all counting on
// ccfg.Metrics (nil: one private instance); with a single address that
// client is the target's memory.
func dial(addrs []string, ccfg rmem.ClientConfig) (target, error) {
	ccfg.NowNS = func() int64 { return time.Now().UnixNano() }
	if ccfg.Metrics == nil {
		ccfg.Metrics = rmem.NewClientMetrics(nil)
	}
	t := target{endpoint: "udp " + addrs[0], clock: "elapsed", metrics: ccfg.Metrics}
	t.close = func() {
		for _, cl := range t.conns {
			cl.Close()
		}
	}
	for _, a := range addrs {
		uc, err := wire.DialUDP(a)
		if err != nil {
			t.close()
			return target{}, err
		}
		cl := rmem.NewClient(uc, ccfg)
		go uc.Run(cl.Deliver)
		if err := cl.Connect(); err != nil {
			uc.Close()
			t.close()
			return target{}, fmt.Errorf("connect %s: %w", a, err)
		}
		t.conns = append(t.conns, cl)
		t.udps = append(t.udps, uc)
	}
	t.mem = t.conns[0]
	t.size = t.conns[0].Geometry().SlabBytes
	return t, nil
}

// dialCluster puts the sharded, dual-homed cluster service in front of N
// edmd nodes: reads route to each extent's primary and fail over to its
// mirror, writes go through to both. One registry holds the router's
// cluster_* series and the node clients' shared rmem_client_*/wire_client_*
// ones; -metrics serves it.
func dialCluster(addrs []string, seed uint64, metricsAddr string, ccfg rmem.ClientConfig, stdout io.Writer) (target, error) {
	// A routed op fans out up to two datagrams per node; give the node
	// windows headroom.
	ccfg.Window *= 4
	if ccfg.Window > rmem.MaxWindow {
		ccfg.Window = rmem.MaxWindow
	}
	reg := telemetry.NewRegistry()
	ccfg.Metrics = rmem.NewClientMetrics(reg)
	t, err := dial(addrs, ccfg)
	if err != nil {
		return target{}, err
	}
	cc, err := cluster.New(t.conns, cluster.Config{
		Seed:    seed,
		Metrics: cluster.NewMetrics(reg, len(addrs)),
		NowNS:   func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		t.close()
		return target{}, err
	}
	t.endpoint = "cluster " + strings.Join(addrs, ",")
	t.mem = cc
	t.cc = cc
	t.size = cc.Size()
	t.close = func() { cc.Close() }
	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			t.close()
			return target{}, fmt.Errorf("metrics listen %s: %w", metricsAddr, err)
		}
		t.close = func() { ln.Close(); cc.Close() }
		go http.Serve(ln, telemetry.AdminMux(reg, nil))
		fmt.Fprintf(stdout, "edmload: metrics on http://%s/metrics\n", ln.Addr())
	}
	return t, nil
}

// targets precomputes the (addr, size, read) triple of every op: sizes are
// clamped to the datagram payload, addresses drawn 8-byte aligned from a
// seeded stream over the slab — the same discipline the scenario runner's
// fabric backend uses.
func targets(ops []workload.Op, seed, slabBytes uint64) ([]workload.Op, []uint64, error) {
	maxSize := wire.MaxData
	if uint64(maxSize) > slabBytes/2 {
		maxSize = int(slabBytes / 2)
	}
	if maxSize < 1 {
		return nil, nil, fmt.Errorf("slab too small: %d bytes", slabBytes)
	}
	addrs := make([]uint64, len(ops))
	stream := workload.NewPartition(seed).Stream("addr")
	space := slabBytes - uint64(maxSize)
	for i := range ops {
		if ops[i].Size > maxSize {
			ops[i].Size = maxSize
		}
		addrs[i] = (stream.Uint64() % space) &^ 7
	}
	return ops, addrs, nil
}

// report renders the percentile table, mirroring cmd/edmsim's summary rows;
// the histogram, server and cluster rows print when the target has the
// handle they read.
func report(w io.Writer, t *target, source string, ops []workload.Op, results []rmem.OpResult, horizon sim.Time) error {
	var all, reads, writes []float64
	var done, failed, shed, mismatched int
	var bytesRead, bytesWritten uint64
	for i, r := range results {
		switch {
		case r.Shed:
			shed++
		case r.Err != nil:
			failed++
			if errors.Is(r.Err, rmem.ErrMismatch) {
				mismatched++
			}
		default:
			done++
			ns := r.Latency.Nanoseconds()
			all = append(all, ns)
			if ops[i].Read {
				reads = append(reads, ns)
				bytesRead += uint64(ops[i].Size)
			} else {
				writes = append(writes, ns)
				bytesWritten += uint64(ops[i].Size)
			}
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "endpoint\t%s\n", t.endpoint)
	fmt.Fprintf(tw, "source\t%s\n", source)
	fmt.Fprintf(tw, "operations\tissued %d done %d failed %d shed %d", len(results), done, failed, shed)
	if mismatched > 0 {
		// Reads whose data was not what this run wrote (counted in failed).
		fmt.Fprintf(tw, " mismatched %d", mismatched)
	}
	fmt.Fprintf(tw, "\nhorizon\t%s\n", t.stamp(horizon))
	fmt.Fprintf(tw, "data\tread %d B written %d B\n", bytesRead, bytesWritten)
	for _, row := range []struct {
		label string
		ns    []float64
	}{{"all", all}, {"reads", reads}, {"writes", writes}} {
		if s := stats.Summarize(row.ns); s.N > 0 {
			fmt.Fprintf(tw, "latency (ns) (%s)\t%s\n", row.label, s.Row())
		}
	}
	// A single connection's telemetry histograms observed the same
	// completions on the same clock; their rows cross-check the exact
	// percentiles above within the histogram's 1/16-bucket resolution.
	if t.cc == nil {
		m := t.metrics
		for _, h := range []struct {
			label string
			kind  wire.Kind
		}{
			{"histogram (ns) (reads)", wire.KindRREQ},
			{"histogram (ns) (writes)", wire.KindWREQ},
		} {
			if snap := m.Latency[h.kind].Snapshot(); snap.Count > 0 {
				fmt.Fprintf(tw, "%s\tmean %.3f p50 %.3f p90 %.3f p99 %.3f max %.3f\n",
					h.label, snap.Mean, snap.P50, snap.P90, snap.P99, snap.Max)
			}
		}
	}
	if horizon > 0 {
		fmt.Fprintf(tw, "throughput\t%.0f ops/s\n", float64(done)/(float64(horizon)/float64(1000*sim.Millisecond)))
	}
	c := t.metrics.Conn
	fmt.Fprintf(tw, "transport\tsent %d retransmits %d timeouts %d", c.Datagrams.Load(), c.Retransmits.Load(), c.Timeouts.Load())
	if len(t.udps) > 0 {
		var parks, polls, datagrams, msgs, lone uint64
		for _, uc := range t.udps {
			p, e := uc.RxStats()
			d, m, l := uc.TxStats()
			parks, polls, datagrams, msgs, lone = parks+p, polls+e, datagrams+d, msgs+m, lone+l
		}
		fmt.Fprintf(tw, ", rx parks %d empty polls %d, tx datagrams %d msgs %d lone %d", parks, polls, datagrams, msgs, lone)
	}
	fmt.Fprintln(tw)
	if sm := t.srv; sm != nil {
		fmt.Fprintf(tw, "server\treads %d writes %d rmws %d errors %d, modeled DRAM %v\n",
			sm.Ops[wire.KindRREQ].Load(), sm.Ops[wire.KindWREQ].Load(), sm.Ops[wire.KindRMWREQ].Load(),
			sm.Errors.Load(), sim.Time(sm.ModeledDRAMPS.Load()))
	}
	if cc := t.cc; cc != nil {
		m := cc.Metrics()
		fmt.Fprintf(tw, "cluster\tnodes %d extents %d x %d B epoch %d\n",
			len(t.conns), cc.Map().Extents(), cc.ExtentBytes(), cc.Epoch())
		fmt.Fprintf(tw, "cluster faults\tfailovers %d splits %d evictions %d moved %d B lost %d owed %d\n",
			m.Failovers.Load(), m.SplitOps.Load(), m.Evictions.Load(),
			t.remirror.Bytes, t.remirror.Lost, m.RemirrorsOwed.Load())
	}
	return tw.Flush()
}
