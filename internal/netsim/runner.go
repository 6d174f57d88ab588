package netsim

import (
	"math"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Protocols returns the seven §4.3 protocols in the paper's presentation
// order, each at its one parameter set.
func Protocols() []Protocol {
	return []Protocol{
		&EDM{},
		IRD{},
		PFabric{},
		PFC{},
		DCTCP{},
		CXL{},
		Fastpass{},
	}
}

// ProtocolByName finds a protocol by its display name.
func ProtocolByName(name string) Protocol {
	for _, p := range Protocols() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// RunNormalized runs the trace and stamps every op's Ideal with the latency
// the same operation achieves alone in an empty cluster (the paper's
// normalization basis for both Figure 8a, "the corresponding unloaded
// latency", and Figure 8b, "the ideal completion time ... if it were the
// only message in the network"). Ideals are measured by replaying one op
// per distinct (size, direction) through the same protocol, memoized.
func RunNormalized(p Protocol, cfg Config, ops []workload.Op) (*Result, error) {
	res, err := p.Run(cfg, ScaleArrivals(p, ops))
	if err != nil {
		return nil, err
	}
	ideals, err := newIdealModel(p, cfg, ops)
	if err != nil {
		return nil, err
	}
	for i := range res.Ops {
		op := res.Ops[i].Op
		ideal, err := ideals.For(op.Size, op.Read)
		if err != nil {
			return nil, err
		}
		res.Ops[i].Ideal = ideal
	}
	return res, nil
}

// idealModel computes unloaded per-op latencies. With few distinct sizes it
// measures each exactly; for heavy-tailed traces it fits a linear model
// (latency = fixed + slope*size) per direction from the extreme sizes —
// unloaded latency is linear in size for every protocol here (constant
// stack/request legs plus per-byte serialization and per-packet pipeline
// costs), and the fit is exact at both anchors.
type idealModel struct {
	p     Protocol
	cfg   Config
	exact map[int64]sim.Time
	fit   map[bool][2]float64 // read -> {fixed_ps, slope_ps_per_byte}
}

const idealExactLimit = 12

func newIdealModel(p Protocol, cfg Config, ops []workload.Op) (*idealModel, error) {
	m := &idealModel{p: p, cfg: cfg, exact: make(map[int64]sim.Time)}
	distinct := map[bool]map[int]bool{false: {}, true: {}}
	minSize := map[bool]int{}
	maxSize := map[bool]int{}
	for _, op := range ops {
		distinct[op.Read][op.Size] = true
		if v, ok := minSize[op.Read]; !ok || op.Size < v {
			minSize[op.Read] = op.Size
		}
		if v, ok := maxSize[op.Read]; !ok || op.Size > v {
			maxSize[op.Read] = op.Size
		}
	}
	for _, read := range []bool{false, true} {
		sizes := distinct[read]
		if len(sizes) == 0 {
			continue
		}
		if len(sizes) <= idealExactLimit {
			for size := range sizes {
				if err := m.measure(size, read); err != nil {
					return nil, err
				}
			}
			continue
		}
		lo, hi := minSize[read], maxSize[read]
		if err := m.measure(lo, read); err != nil {
			return nil, err
		}
		if err := m.measure(hi, read); err != nil {
			return nil, err
		}
		tLo := float64(m.exact[idealKey(lo, read)])
		tHi := float64(m.exact[idealKey(hi, read)])
		slope := 0.0
		if hi > lo {
			slope = (tHi - tLo) / float64(hi-lo)
		}
		if m.fit == nil {
			m.fit = make(map[bool][2]float64)
		}
		m.fit[read] = [2]float64{tLo - slope*float64(lo), slope}
	}
	return m, nil
}

func idealKey(size int, read bool) int64 {
	k := int64(size) << 1
	if read {
		k |= 1
	}
	return k
}

func (m *idealModel) measure(size int, read bool) error {
	key := idealKey(size, read)
	if _, ok := m.exact[key]; ok {
		return nil
	}
	single, err := m.p.Run(m.cfg, []workload.Op{{
		Index: 0, Src: 0, Dst: 1, Size: size, Read: read, Arrival: 0,
	}})
	if err != nil {
		return err
	}
	m.exact[key] = single.Ops[0].Latency
	return nil
}

// For returns the unloaded latency for the op.
func (m *idealModel) For(size int, read bool) (sim.Time, error) {
	if v, ok := m.exact[idealKey(size, read)]; ok {
		return v, nil
	}
	f, ok := m.fit[read]
	if !ok {
		if err := m.measure(size, read); err != nil {
			return 0, err
		}
		return m.exact[idealKey(size, read)], nil
	}
	return sim.Time(f[0] + f[1]*float64(size)), nil
}

// ScaleArrivals stretches the trace's arrival times by the protocol's wire
// inflation (wire bytes per data byte, including read-request frames), so
// that the generator's target load is the protocol's wire-byte link
// utilization. Without this, a protocol with 2x framing overhead would be
// driven into saturation at a nominal load of 0.6 and every latency would
// measure queue growth rather than protocol behaviour; the paper's own
// Figure 8a note records the same load-accounting subtlety.
func ScaleArrivals(p Protocol, ops []workload.Op) []workload.Op {
	wire, data := ArrivalScale(p, ops)
	if data == 0 || wire <= data {
		return ops
	}
	out := make([]workload.Op, len(ops))
	for i, op := range ops {
		op.Arrival = scaleTime(op.Arrival, wire, data)
		out[i] = op
	}
	return out
}

// ArrivalScale reports the wire-inflation ratio (wire, data) ScaleArrivals
// stretches the trace by, so callers can map other trace-timebase instants
// (phase boundaries, event times) into the scaled run timebase.
func ArrivalScale(p Protocol, ops []workload.Op) (wire, data int64) {
	for _, op := range ops {
		data += int64(op.Size)
		wire += int64(p.WireBytes(op.Size))
		if op.Read {
			wire += int64(p.ReqWireBytes())
		}
	}
	return wire, data
}

// ScaleArrival maps one instant from the offered-trace timebase to the
// scaled run timebase (identity when there is no inflation).
func ScaleArrival(t sim.Time, wire, data int64) sim.Time {
	if data == 0 || wire <= data {
		return t
	}
	return scaleTime(t, wire, data)
}

// scaleTime computes t*num/den without overflowing: a multi-second trace
// (t ~ 1e12 ps) times a large wire-byte total overflows int64 long before
// the quotient does, so the product is kept in 128 bits.
func scaleTime(t sim.Time, num, den int64) sim.Time {
	hi, lo := bits.Mul64(uint64(t), uint64(num))
	if hi >= uint64(den) {
		// Quotient would overflow 64 bits; unreachable for physical traces
		// (it needs t*num/den > 292 years of simulated time) but saturate
		// rather than panic in Div64.
		return sim.Time(math.MaxInt64)
	}
	q, _ := bits.Div64(hi, lo, uint64(den))
	if q > math.MaxInt64 {
		return sim.Time(math.MaxInt64)
	}
	return sim.Time(q)
}
