// Package netsim is the large-scale network simulator behind the paper's
// §4.3 evaluation: a single-switch cluster of N nodes running one of seven
// protocol models — EDM's in-network scheduler and six congestion/flow
// control baselines (DCTCP, idealized receiver-driven, pFabric, PFC, CXL,
// Fastpass) — against open-loop traces from internal/workload.
//
// It is message/packet-level (like the paper's C simulator), in contrast to
// the block-level testbed in internal/edm: protocol dynamics and queueing
// are modelled exactly, per-block pipelines by their published constants.
//
// PFC and CXL are one input-queued switch (iqSwitch), differing only in
// their constants and flow control (pause frames, credits). pFabric and
// DCTCP are one windowed sender (tcpNet, tcp.go), differing only in their
// constants, their switch egress (SRPT dropping the lowest priority; tail
// drop with ECN marks) and their window rule (fixed; DCTCP's α). Each baseline
// runs at one parameter set, held as named constants beside its model;
// only EDM's scheduler knobs, which the ablations sweep, are fields. A
// protocol value holds no state: every Run builds its model afresh, so one
// value may run traces from several goroutines at once.
package netsim

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Config is the cluster under simulation. The paper's setup: 144 nodes,
// 100 Gbps links, one switch.
type Config struct {
	Nodes     int
	Bandwidth sim.Gbps
}

// mtu bounds packet payloads for the MAC-based protocols. Every protocol
// shares it, and the testbed's link delays (edm.DefaultPropDelay per hop,
// edm.LinkLatency per link traversal).
const mtu = 1500

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("netsim: nodes=%d", c.Nodes)
	}
	if c.Bandwidth <= 0 {
		return fmt.Errorf("netsim: invalid config %+v", c)
	}
	return nil
}

// OpResult records one completed operation.
type OpResult struct {
	Op      workload.Op
	Latency sim.Time // issue to last data byte delivered
	Ideal   sim.Time // same op alone in an unloaded network
}

// Result is a protocol run over a trace.
type Result struct {
	Proto     string
	Ops       []OpResult
	Horizon   sim.Time // simulated time span
	Completed int
}

// Normalized returns latency/ideal ratios, optionally filtered to reads or
// writes (pass nil for all).
func (r *Result) Normalized(filter func(workload.Op) bool) []float64 {
	out := make([]float64, 0, len(r.Ops))
	for _, o := range r.Ops {
		if filter != nil && !filter(o.Op) {
			continue
		}
		if o.Ideal > 0 {
			out = append(out, float64(o.Latency)/float64(o.Ideal))
		}
	}
	return out
}

// NormalizedSummary summarizes latency/ideal ratios.
func (r *Result) NormalizedSummary(filter func(workload.Op) bool) stats.Summary {
	return stats.Summarize(r.Normalized(filter))
}

// Reads filters read operations.
func Reads(op workload.Op) bool { return op.Read }

// Writes filters write operations.
func Writes(op workload.Op) bool { return !op.Read }

// Protocol runs a trace on a cluster.
type Protocol interface {
	Name() string
	Run(cfg Config, ops []workload.Op) (*Result, error)
	// WireBytes reports the protocol's on-wire cost of moving n data
	// bytes (headers, framing, minimum frames), and ReqWireBytes the cost
	// of a read-request on the data path (0 if requests ride a control
	// plane). Used to interpret offered load as wire-byte utilization.
	WireBytes(n int) int
	ReqWireBytes() int
}

// pipe is a FIFO serializing resource (a link or switch egress port): each
// send occupies the pipe for the transmission time, then the payload
// arrives after a fixed latency. Queueing is implicit in busyUntil.
type pipe struct {
	eng       *sim.Engine
	bw        sim.Gbps
	lat       sim.Time
	busyUntil sim.Time
}

func newPipe(eng *sim.Engine, bw sim.Gbps, lat sim.Time) *pipe {
	return &pipe{eng: eng, bw: bw, lat: lat}
}

// queuedBytes reports the backlog not yet serialized, in bytes.
func (p *pipe) queuedBytes() int64 {
	now := p.eng.Now()
	if p.busyUntil <= now {
		return 0
	}
	d := p.busyUntil - now
	return int64(d) * int64(p.bw) / 8000 // ps * Gbps -> bytes
}

// send enqueues n wire bytes; then runs when the last byte arrives at the
// far end.
func (p *pipe) send(n int, then func()) {
	p.busyUntil = max(p.busyUntil, p.eng.Now()) + sim.TransmissionTime(n, p.bw)
	if then != nil {
		p.eng.At(p.busyUntil+p.lat, then)
	}
}

// packetize splits n bytes into payloads of at most mtu bytes.
func packetize(n, mtu int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, 0, n/mtu+1)
	for n > mtu {
		out = append(out, mtu)
		n -= mtu
	}
	return append(out, n)
}

// stackWire is the total wire bytes of an n-byte message packetized at the
// MTU over the given stack.
func stackWire(s transport.Stack, n int) int {
	total := 0
	for _, k := range packetize(n, mtu) {
		total += transport.WireBytes(s, k)
	}
	return total
}

// tracker counts remaining bytes per op and records completion.
type tracker struct {
	res     *Result
	pending map[int]*OpResult
	left    map[int]int
	eng     *sim.Engine
	err     error
}

func newTracker(eng *sim.Engine, proto string, ops []workload.Op) *tracker {
	t := &tracker{
		res:     &Result{Proto: proto},
		pending: make(map[int]*OpResult, len(ops)),
		left:    make(map[int]int, len(ops)),
		eng:     eng,
	}
	for _, op := range ops {
		t.pending[op.Index] = &OpResult{Op: op}
		t.left[op.Index] = op.Size
	}
	return t
}

// delivered credits n data bytes to op idx; on the last byte it records the
// completion latency.
func (t *tracker) delivered(idx, n int) {
	left, ok := t.left[idx]
	if !ok {
		return
	}
	left -= n
	if left > 0 {
		t.left[idx] = left
		return
	}
	delete(t.left, idx)
	r := t.pending[idx]
	delete(t.pending, idx)
	r.Latency = t.eng.Now() - r.Op.Arrival
	t.res.Ops = append(t.res.Ops, *r)
	t.res.Completed++
}

// fail records the first internal error of a run (always a model bug);
// drive reports it in place of the result.
func (t *tracker) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// drive is the run every protocol shares: it validates cfg, lets build set
// up the model's state on a fresh engine and tracker, schedules every op's
// arrival in trace order through the step build returns, runs the engine,
// and fails unless every op completed.
func drive(name string, cfg Config, ops []workload.Op,
	build func(eng *sim.Engine, track *tracker) func(workload.Op)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	track := newTracker(eng, name, ops)
	arrive := build(eng, track)
	for _, op := range ops {
		eng.At(op.Arrival, func() { arrive(op) })
	}
	eng.Run()
	what := strings.ToLower(name) + " run"
	if track.err != nil {
		return nil, fmt.Errorf("%s: %w", what, track.err)
	}
	if track.res.Completed != len(ops) {
		return nil, fmt.Errorf("%s: %d of %d ops completed", what, track.res.Completed, len(ops))
	}
	track.res.Horizon = eng.Now()
	return track.res, nil
}
