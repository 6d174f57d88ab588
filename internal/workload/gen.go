package workload

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Op is one remote-memory operation in a trace.
type Op struct {
	// Index is the op's position in the trace.
	Index int
	// Src is the issuing (compute) node; Dst is the remote (memory) node.
	Src, Dst int
	// Size is the data size in bytes: the RRES size for reads, the WREQ
	// payload for writes.
	Size int
	// Read distinguishes reads (data flows Dst->Src after a small request
	// Src->Dst) from writes (data flows Src->Dst).
	Read bool
	// Arrival is when the op is issued at Src.
	Arrival sim.Time
}

// GenConfig describes an open-loop all-to-all trace at a target load, the
// setup of the paper's §4.3 simulations.
type GenConfig struct {
	// Nodes in the cluster; destinations are uniform over the other nodes.
	Nodes int
	// Load is the per-link offered load in (0, 1], counted on data bytes
	// (the paper's convention: an 8 B RREQ does not count toward load).
	Load float64
	// Bandwidth of each link.
	Bandwidth sim.Gbps
	// Sizes samples data sizes.
	Sizes SizeDist
	// ReadFrac is the fraction of operations that are reads (the rest are
	// writes). Figure 8a sweeps this via the W:R mixtures.
	ReadFrac float64
	// Count is the total number of operations to generate, rounded down to
	// a multiple of Nodes: every node issues Count/Nodes of them (600 ops
	// at 144 nodes give 576). It must be at least Nodes.
	Count int
	// Seed makes the trace reproducible.
	Seed uint64
}

// Validate checks the configuration.
func (c GenConfig) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("workload: need >= 2 nodes, got %d", c.Nodes)
	}
	if c.Load <= 0 || c.Load > 1 {
		return fmt.Errorf("workload: load %f out of (0,1]", c.Load)
	}
	if c.Bandwidth <= 0 {
		return fmt.Errorf("workload: bandwidth %d", c.Bandwidth)
	}
	if c.Sizes == nil {
		return fmt.Errorf("workload: nil size distribution")
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		return fmt.Errorf("workload: read fraction %f", c.ReadFrac)
	}
	if c.Count < c.Nodes {
		return fmt.Errorf("workload: count %d below one op per node (%d nodes)", c.Count, c.Nodes)
	}
	return nil
}

// Generate produces the trace, sorted by arrival time. Each node runs an
// independent Poisson process whose rate makes its outgoing data bytes
// consume Load of its link.
//
// Randomness is partitioned per subsystem and per node (arrival process,
// destination choice, size sampler, read/write coin each draw from their own
// stream), so e.g. swapping the size distribution leaves each node's
// destination and read/write sequence unchanged for the same seed. (Arrival
// times still rescale with the distribution's mean — the load-targeting gap
// is meanGap = Sizes.Mean()*8/(Load*bw) — but the underlying exponential
// draws are identical.)
func Generate(cfg GenConfig) ([]Op, error) {
	return GeneratePartitioned(NewPartition(cfg.Seed), cfg)
}

// GeneratePartitioned is Generate drawing from an existing Partition
// (cfg.Seed is ignored); the scenario runner uses it to give each load phase
// an isolated sub-partition of one scenario seed.
func GeneratePartitioned(part *Partition, cfg GenConfig) ([]Op, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Mean inter-arrival per node: size_bits / (load * bandwidth_bits_per_ps).
	bitsPerPs := float64(cfg.Bandwidth) / 1000.0
	meanGap := (cfg.Sizes.Mean() * 8) / (cfg.Load * bitsPerPs) // picoseconds

	perNode := cfg.Count / cfg.Nodes
	ops := make([]Op, 0, perNode*cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		arrivals := part.StreamN("arrival", n)
		dsts := part.StreamN("dst", n)
		sizes := part.StreamN("size", n)
		rw := part.StreamN("rw", n)
		t := 0.0
		for k := 0; k < perNode; k++ {
			t += arrivals.Exp(meanGap)
			dst := dsts.Intn(cfg.Nodes - 1)
			if dst >= n {
				dst++
			}
			ops = append(ops, Op{
				Src:     n,
				Dst:     dst,
				Size:    cfg.Sizes.Sample(sizes),
				Read:    rw.Float64() < cfg.ReadFrac,
				Arrival: sim.Time(t),
			})
		}
	}
	sortOps(ops)
	for i := range ops {
		ops[i].Index = i
	}
	return ops, nil
}

// sortOps orders by (arrival, src, dst) for deterministic replay.
func sortOps(ops []Op) {
	sort.Slice(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}

// YCSBWorkload identifies the YCSB mixes used in Figures 6-7.
type YCSBWorkload int

const (
	YCSBA YCSBWorkload = iota // 50% reads, 50% writes
	YCSBB                     // 95% reads, 5% writes
	YCSBF                     // 67% reads, 33% read-modify-writes
)

// String names the workload.
func (w YCSBWorkload) String() string {
	switch w {
	case YCSBA:
		return "YCSB-A"
	case YCSBB:
		return "YCSB-B"
	case YCSBF:
		return "YCSB-F"
	}
	return "YCSB-?"
}

// WriteFraction reports the update fraction of the mix (F's RMW counts as a
// write for traffic purposes, per the paper: "A: 50% write, B: 5% write,
// F: 33% write").
func (w YCSBWorkload) WriteFraction() float64 {
	switch w {
	case YCSBA:
		return 0.50
	case YCSBB:
		return 0.05
	case YCSBF:
		return 0.33
	}
	return 0
}

// KVOp is one key-value operation.
type KVOp struct {
	Key    int
	Update bool
}

// YCSBGen generates zipfian key-value operations.
type YCSBGen struct {
	workload YCSBWorkload
	zipf     *Zipf
	rng      *Rand
}

// NewYCSB returns a generator over nkeys keys with the standard zipfian
// skew.
func NewYCSB(w YCSBWorkload, nkeys int, seed uint64) *YCSBGen {
	rng := NewRand(seed)
	return &YCSBGen{workload: w, zipf: NewZipf(rng.Split(), nkeys, 0.99), rng: rng}
}

// Next returns the next operation.
func (g *YCSBGen) Next() KVOp {
	return KVOp{
		Key:    g.zipf.Next(),
		Update: g.rng.Float64() < g.workload.WriteFraction(),
	}
}
