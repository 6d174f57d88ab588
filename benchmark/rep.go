//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// warmupOps fills what the stack caches before anything is timed: the
// responder's 4096-entry dedup window, the call/entry free lists and the
// message pools.
const warmupOps = 4096 + 1024

// spanCap bounds the per-lane span buffer (the first ~8k ops of a loopback
// run are kept in full; the self-time totals cover every op regardless).
const spanCap = 1 << 16

// repConfig is everything one repetition needs; the harness hands it to a
// fresh child process as JSON.
type repConfig struct {
	Spec        string  `json:"spec"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	Slab        uint64  `json:"slab"`
	Warmup      int     `json:"warmup"`
	EdmdBin     string  `json:"edmd_bin"`
	ServerCPUs  cpuSet  `json:"server_cpus"` // where to pin edmd; all zero leaves it unpinned
	SpawnedAt   int64   `json:"spawned_at"`  // wall clock (Unix ns) just before the harness started this child
	WrongExpect bool    `json:"wrong_expect"`
	TraceFile   string  `json:"trace_file"`
	Micro       bool    `json:"micro"` // run the direct-call measurements instead of a repetition
}

// repResult is what one repetition reports back.
type repResult struct {
	Spec       string             `json:"spec"`
	Seed       uint64             `json:"seed"`
	Traced     bool               `json:"traced"`
	MeasuredS  float64            `json:"measured_s"`
	Attempted  uint64             `json:"attempted"`
	Failed     uint64             `json:"failed"`
	Samples    int                `json:"lat_samples"`
	Window     int                `json:"window"`
	E2E        map[string]float64 `json:"end_to_end,omitempty"`
	Layer      map[string]float64 `json:"per_layer,omitempty"`
	GenCPUs    string             `json:"generator_cpus"`
	ServerCPUs string             `json:"server_cpus,omitempty"`
	GoMaxProcs int                `json:"gomaxprocs"`
	FirstErr   string             `json:"first_error,omitempty"`
}

// nsPerOp is the repetition's mean time per op.
func (r *repResult) nsPerOp() float64 { return 1e9 / r.E2E["ops_per_s"] }

// counters is the set of cumulative counts read before and after the
// measured interval.
type counters struct {
	genCPU, srvCPU, srvCtxsw     uint64
	mallocs, gcPauseNS           uint64
	retrans, timeouts, strays    uint64
	issued                       uint64
	replays, srvErrors           uint64
	splitOps, failovers          uint64
	svcSum, svcCount             uint64 // edmd's rmem_server_op_latency_ns, all ops
	ok, failed, goodBytes, opSeq uint64
}

func readCounters(t *target, d *driver) (c counters, err error) {
	self, err := readProcUsage(os.Getpid())
	if err != nil {
		return c, fmt.Errorf("generator /proc usage: %w", err)
	}
	c.genCPU = self.cpuNS
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcPauseNS = ms.Mallocs, ms.PauseTotalNs
	for _, cl := range t.clients {
		cs := cl.ConnStats()
		c.retrans += cs.Retransmit
		c.timeouts += cs.Timeouts
		c.strays += cs.Stray
		c.issued += cl.Stats().Issued
	}
	for _, s := range t.servers {
		c.srvErrors += s.Stats().Errors
	}
	if t.respMet != nil {
		c.replays = t.respMet.Duplicates.Load()
	}
	if t.cluster != nil {
		m := t.cluster.Metrics()
		c.splitOps, c.failovers = m.SplitOps.Load(), m.Failovers.Load()
	}
	if t.edmd != nil {
		u, e := readProcUsage(t.edmd.cmd.Process.Pid)
		if e != nil {
			return c, fmt.Errorf("edmd /proc usage: %w", e)
		}
		c.srvCPU, c.srvCtxsw = u.cpuNS, u.ctxsw
		if t.edmd.admin != "" {
			snap, e := t.edmd.scrape()
			if e != nil {
				return c, fmt.Errorf("scrape edmd: %w", e)
			}
			c.replays = snap.Counters["wire_server_replays_total"]
			c.srvErrors = snap.Counters["rmem_server_errors_total"]
			for _, op := range []string{"read", "write", "rmw"} {
				h := snap.Histograms[`rmem_server_op_latency_ns{op="`+op+`"}`]
				c.svcSum += h.Sum
				c.svcCount += h.Count
			}
		}
	}
	c.ok, c.failed, c.goodBytes = d.ok, d.failed.Load(), d.goodBytes
	c.opSeq = uint64(d.opSeq)
	return c, nil
}

// percentile is the nearest-rank q-quantile of sorted, in the slice's unit.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runRep is one repetition: assemble the stack, prefill, warm up, measure
// for cfg.Seconds, verify what the slab now holds, and report.
func runRep(cfg repConfig) (res repResult, err error) {
	sp, ok := findSpec(cfg.Spec)
	if !ok {
		return res, fmt.Errorf("unknown workload %q", cfg.Spec)
	}
	if sp.SplitPct > 0 && sp.WritePct > 0 && sp.Size < 2*blockBytes {
		return res, fmt.Errorf("%s: split writes need at least %d-byte ops", sp.Name, 2*blockBytes)
	}
	lay, err := newLayout(cfg.Slab)
	if err != nil {
		return res, err
	}
	res = repResult{Spec: sp.Name, Seed: cfg.Seed, Traced: cfg.Trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), Window: sp.Window}
	if aff, e := getAffinity(); e == nil {
		res.GenCPUs = aff.String()
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer(sp.Target == tUDP, spanCap)
	}
	t, err := buildTarget(sp, cfg.Slab, tr, cfg.EdmdBin, cfg.ServerCPUs)
	if err != nil {
		return res, err
	}
	defer t.close()
	if t.edmd != nil {
		res.ServerCPUs = t.edmd.pinned.String()
	}
	if t.inline {
		res.Window = 1
	}
	if t.stateful {
		if err := prefill(t.mem, sp.Window, lay); err != nil {
			return res, err
		}
	}
	ver := newVerifier(lay, cfg.WrongExpect)
	gen := newOpGen(sp, lay, cfg.Seed, "ops")
	d := newDriver(t.mem, t.inline, sp, gen, ver, tr, cfg.Seconds)
	d.runCount(cfg.Warmup)
	if tr != nil {
		tr.reset()
	}
	before, err := readCounters(t, d)
	if err != nil {
		return res, err
	}
	setupS := float64(time.Now().UnixNano()-cfg.SpawnedAt) / 1e9

	t0, t1 := d.runFor(time.Duration(cfg.Seconds * float64(time.Second)))

	var tt traceTotals
	if tr != nil {
		tt = tr.stop()
	}
	after, err := readCounters(t, d)
	if err != nil {
		return res, err
	}
	secs := float64(t1-t0) / 1e9
	ops := float64(after.ok - before.ok)
	res.MeasuredS = secs
	res.Attempted = after.opSeq - before.opSeq
	res.Failed = after.failed
	var sweepBad uint64
	if t.stateful {
		if sweepBad, err = t.verifyState(ver); err != nil {
			return res, err
		}
		res.Failed += sweepBad
	}
	if e, _ := d.firstErr.Load().(error); e != nil {
		res.FirstErr = e.Error()
	} else if sweepBad > 0 {
		res.FirstErr = fmt.Sprintf("post-run sweep: %d blocks or counters hold the wrong bytes; first: %s", sweepBad, ver.firstBad)
	}
	if ops == 0 {
		return res, fmt.Errorf("%s: no op completed (%s)", sp.Name, res.FirstErr)
	}

	// Exact latencies: overall, and per op class where a workload mixes them.
	n := d.nlat
	res.Samples = n
	all := make([]uint32, n)
	var count [numOpKinds]int
	for i, v := range d.lat[:n] {
		all[i] = v & latMask
		count[v>>latBits]++
	}
	slices.Sort(all)
	classP50 := func(c uint32) float64 {
		if count[c] == n {
			return percentile(all, 0.50) / 1e3
		}
		of := make([]uint32, 0, count[c])
		for _, v := range d.lat[:n] {
			if v>>latBits == c {
				of = append(of, v&latMask)
			}
		}
		slices.Sort(of)
		return percentile(of, 0.50) / 1e3
	}
	latMeanNS := ratio(float64(d.latSum), float64(d.timed))
	genCPU := float64(after.genCPU - before.genCPU)
	srvCPU := float64(after.srvCPU - before.srvCPU)
	rss := peakRSSMB(os.Getpid())
	if t.edmd != nil {
		rss += peakRSSMB(t.edmd.cmd.Process.Pid)
	}
	res.E2E = map[string]float64{
		"ops_per_s":        ops / secs,
		"lat_p50_us":       percentile(all, 0.50) / 1e3,
		"lat_p95_us":       percentile(all, 0.95) / 1e3,
		"goodput_mb_per_s": float64(after.goodBytes-before.goodBytes) / secs / 1e6,
		"cpu_us_per_op":    (genCPU + srvCPU) / 1e3 / ops,
		"rss_mb":           rss,
		"setup_s":          setupS,
	}
	L := map[string]float64{
		failRatio:                ratio(float64(res.Failed), float64(res.Attempted)),
		"driver.mlp_mean":        ops / secs * latMeanNS / 1e9,
		"driver.lat_p99_us":      percentile(all, 0.99) / 1e3,
		"driver.lat_p999_us":     percentile(all, 0.999) / 1e3,
		"driver.read_p50_us":     classP50(opRead),
		"driver.write_p50_us":    classP50(opWrite),
		"driver.rmw_p50_us":      classP50(opRMW),
		"driver.split_p50_us":    classP50(opSplit),
		"driver.allocs_per_op":   float64(after.mallocs-before.mallocs) / ops,
		"driver.gc_pause_us":     float64(after.gcPauseNS-before.gcPauseNS) / 1e3,
		"wire.conn.retransmits":  float64(after.retrans - before.retrans),
		"wire.conn.timeouts":     float64(after.timeouts - before.timeouts),
		"wire.conn.strays":       float64(after.strays - before.strays),
		"wire.responder.replays": float64(after.replays - before.replays),
		"rmem.server.errors":     float64(after.srvErrors - before.srvErrors),
	}
	if t.cluster != nil {
		L["cluster.subops_per_op"] = float64(after.issued-before.issued) / ops
		L["cluster.split_ops"] = float64(after.splitOps - before.splitOps)
		L["cluster.failovers"] = float64(after.failovers - before.failovers)
		L["cluster.map_epoch"] = float64(t.cluster.Epoch())
	}
	if t.edmd != nil {
		L["wire.udp.server_cpu_us_per_op"] = srvCPU / 1e3 / ops
		L["wire.udp.client_cpu_us_per_op"] = genCPU / 1e3 / ops
		L["wire.udp.server_ctxsw_per_op"] = float64(after.srvCtxsw-before.srvCtxsw) / ops
	}
	if tr != nil {
		per := func(name spanName) float64 { return float64(tt.self[name]) / ops }
		L["rmem.client.issue_self_ns"] = per(spIssue)
		L["rmem.client.post_send_self_ns"] = per(spOp)
		L["rmem.client.complete_self_ns"] = per(spClientDeliver)
		L["driver.callback_self_ns"] = per(spCallback)
		if t.inline {
			L["wire.responder.self_ns"] = per(spServerDeliver)
			L["wire.loopback.send_self_ns"] = per(spPipeSend) + per(spServerSend)
			L["rmem.server.service_ns"] = ratio(float64(tt.self[spHandle]), float64(tt.count[spHandle]))
			// Every instant of an op span belongs to exactly one layer's
			// self time, so the two sides differ only if a shim lost a span.
			sum := per(spIssue) + per(spOp) + per(spClientDeliver) + per(spCallback) +
				per(spServerDeliver) + per(spPipeSend) + per(spServerSend) + per(spHandle)
			opSpan := float64(tt.opDur) / ops
			L["trace.budget_gap_pct"] = 100 * math.Abs(opSpan-sum) / opSpan
		} else {
			L["wire.udp.send_ns"] = ratio(float64(tt.self[spPipeSend]), float64(tt.sendCalls))
			L["wire.udp.datagrams_per_send"] = ratio(float64(tt.sendDgrams), float64(tt.sendCalls))
			L["wire.udp.rtt_ns"] = ratio(float64(tt.rttSum), float64(tt.rttN))
			L["rmem.server.service_ns"] = ratio(float64(after.svcSum-before.svcSum), float64(after.svcCount-before.svcCount))
			// Two processes: the op is issue + send + round trip + the
			// client's receive path up to the callback, checked against
			// the latency the driver measured on its own.
			sum := per(spIssue) + L["wire.udp.send_ns"] + L["wire.udp.rtt_ns"] + per(spClientDeliver)
			L["trace.budget_gap_pct"] = 100 * math.Abs(latMeanNS-sum) / latMeanNS
		}
		if cfg.TraceFile != "" {
			if err := os.MkdirAll(filepath.Dir(cfg.TraceFile), 0o755); err != nil {
				return res, err
			}
			if err := tr.writeJSON(cfg.TraceFile, sp.Name); err != nil {
				return res, err
			}
		}
	}
	res.Layer = L
	return res, nil
}
