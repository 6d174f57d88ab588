package netsim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func smallCfg() Config {
	return Config{Nodes: 16, Bandwidth: 100}
}

func smallTrace(t *testing.T, load float64, count int, readFrac float64) []workload.Op {
	t.Helper()
	ops, err := workload.Generate(workload.GenConfig{
		Nodes: 16, Load: load, Bandwidth: 100,
		Sizes: workload.Fixed(64), ReadFrac: readFrac, Count: count, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestPipeSerializes(t *testing.T) {
	eng := sim.NewEngine()
	p := newPipe(eng, 100, 10*sim.Nanosecond)
	var t1, t2 sim.Time
	p.send(1250, func() { t1 = eng.Now() }) // 100ns tx
	p.send(1250, func() { t2 = eng.Now() })
	eng.Run()
	if t1 != 110*sim.Nanosecond {
		t.Fatalf("first delivery at %v", t1)
	}
	if t2 != 210*sim.Nanosecond {
		t.Fatalf("second delivery at %v (no serialization?)", t2)
	}
}

func TestPipeQueuedBytes(t *testing.T) {
	eng := sim.NewEngine()
	p := newPipe(eng, 100, 0)
	p.send(12500, func() {}) // 1us
	if q := p.queuedBytes(); q != 12500 {
		t.Fatalf("queuedBytes = %d", q)
	}
	eng.Run()
	if q := p.queuedBytes(); q != 0 {
		t.Fatalf("queuedBytes after drain = %d", q)
	}
}

func TestPacketize(t *testing.T) {
	cases := []struct {
		n, mtu int
		want   []int
	}{
		{64, 1500, []int{64}},
		{1500, 1500, []int{1500}},
		{1501, 1500, []int{1500, 1}},
		{4000, 1500, []int{1500, 1500, 1000}},
		{0, 1500, nil},
	}
	for _, c := range cases {
		got := packetize(c.n, c.mtu)
		if len(got) != len(c.want) {
			t.Errorf("packetize(%d): %v", c.n, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("packetize(%d): %v", c.n, got)
			}
		}
	}
}

// TestAllProtocolsComplete runs every protocol over the same moderate-load
// trace and checks basic sanity: all ops complete with positive latency and
// ideals, and no normalized latency is materially below 1.
func TestAllProtocolsComplete(t *testing.T) {
	ops := smallTrace(t, 0.5, 2000, 0.5)
	for _, p := range Protocols() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res, err := RunNormalized(p, smallCfg(), ops)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != len(ops) {
				t.Fatalf("completed %d of %d", res.Completed, len(ops))
			}
			norm := res.Normalized(nil)
			if len(norm) != len(ops) {
				t.Fatalf("normalized %d of %d", len(norm), len(ops))
			}
			s := res.NormalizedSummary(nil)
			if s.Mean < 0.95 {
				t.Fatalf("mean normalized %.3f < 0.95 (ideal mis-measured)", s.Mean)
			}
			t.Logf("%s: normalized %v", p.Name(), s)
		})
	}
}

// TestSingleOpMatchesIdeal: with one op in the network, normalized latency
// must be exactly 1 for every protocol (determinism of the ideal replay).
func TestSingleOpMatchesIdeal(t *testing.T) {
	for _, p := range Protocols() {
		for _, read := range []bool{false, true} {
			ops := []workload.Op{{Index: 0, Src: 2, Dst: 9, Size: 64, Read: read, Arrival: 0}}
			res, err := RunNormalized(p, smallCfg(), ops)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			n := res.Normalized(nil)
			if len(n) != 1 || n[0] < 0.999 || n[0] > 1.001 {
				t.Errorf("%s read=%v: single-op normalized = %v", p.Name(), read, n)
			}
		}
	}
}

// TestEDMStaysNearUnloaded is the headline claim: EDM's average latency at
// high load stays within ~1.3x unloaded (§4.3.1).
func TestEDMStaysNearUnloaded(t *testing.T) {
	ops := smallTrace(t, 0.8, 4000, 0.5)
	res, err := RunNormalized(&EDM{}, smallCfg(), ops)
	if err != nil {
		t.Fatal(err)
	}
	s := res.NormalizedSummary(nil)
	t.Logf("EDM at load 0.8: %v", s)
	if s.Mean > 1.5 {
		t.Fatalf("EDM normalized mean %.3f at load 0.8, want <= 1.5", s.Mean)
	}
}

// TestProtocolOrderingAtHighLoad checks the comparisons the paper's Figure
// 8a supports robustly in this model: EDM's absolute latency is the lowest
// of every protocol even at high load (the Table 1 gap persists under
// load); CXL's normalized latency exceeds EDM's (credit HOL); and Fastpass
// is catastrophically worst in normalized terms (arbiter bottleneck).
// Normalized ratios for the TCP/RoCE-stack baselines are muted relative to
// the paper because their multi-microsecond stacks dwarf queueing when the
// network is kept below wire saturation.
func TestProtocolOrderingAtHighLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ops := smallTrace(t, 0.8, 4000, 0.5)
	norm := map[string]float64{}
	abs := map[string]float64{}
	for _, p := range Protocols() {
		res, err := RunNormalized(p, smallCfg(), ops)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		norm[p.Name()] = res.NormalizedSummary(nil).Mean
		var sum float64
		for _, o := range res.Ops {
			sum += float64(o.Latency)
		}
		abs[p.Name()] = sum / float64(len(res.Ops))
		t.Logf("%-10s normalized=%.3f absolute=%.0fns", p.Name(), norm[p.Name()], abs[p.Name()]/1000)
	}
	for name, a := range abs {
		if name == "EDM" {
			continue
		}
		if a < abs["EDM"] {
			t.Errorf("%s absolute latency (%.0fns) below EDM (%.0fns) at load 0.8",
				name, a/1000, abs["EDM"]/1000)
		}
	}
	if norm["CXL"] < norm["EDM"] {
		t.Errorf("CXL normalized (%.3f) below EDM (%.3f): credit HOL missing", norm["CXL"], norm["EDM"])
	}
	if norm["Fastpass"] < 3*norm["EDM"] {
		t.Errorf("Fastpass (%.3f) not clearly worst vs EDM (%.3f)", norm["Fastpass"], norm["EDM"])
	}
}

// TestEDMLoadMonotone: EDM's normalized latency grows gently with load and
// stays bounded.
func TestEDMLoadMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	prev := 0.0
	for _, load := range []float64{0.2, 0.6, 0.9} {
		ops := smallTrace(t, load, 3000, 0.5)
		res, err := RunNormalized(&EDM{}, smallCfg(), ops)
		if err != nil {
			t.Fatal(err)
		}
		m := res.NormalizedSummary(nil).Mean
		t.Logf("EDM load %.1f: %.3f", load, m)
		if m < prev-0.1 {
			t.Errorf("normalized latency fell sharply with load: %.3f -> %.3f", prev, m)
		}
		prev = m
	}
	if prev > 2.0 {
		t.Errorf("EDM at 0.9 load: %.3f, want < 2", prev)
	}
}

// TestIRDWastesBandwidthUnderConflicts: engineering a conflict — two
// receivers repeatedly granting the same sender — must register wasted
// grant time in IRD but still complete.
func TestIRDConflictAccounting(t *testing.T) {
	// 1 sender, 2 receivers, many messages: receiver grants collide at the
	// shared sender.
	var ops []workload.Op
	for i := 0; i < 40; i++ {
		ops = append(ops, workload.Op{
			Index: i, Src: 0, Dst: 1 + i%2, Size: 4000, Read: false,
			Arrival: sim.Time(i) * 100 * sim.Nanosecond,
		})
	}
	p := &IRD{}
	res, err := p.Run(smallCfg(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(ops) {
		t.Fatalf("completed %d", res.Completed)
	}
}

// TestCXLDelivery: CXL flit accounting moves exactly the op's bytes.
func TestCXLDelivery(t *testing.T) {
	ops := []workload.Op{
		{Index: 0, Src: 0, Dst: 1, Size: 1000, Read: false, Arrival: 0},
		{Index: 1, Src: 2, Dst: 3, Size: 100, Read: true, Arrival: 0},
	}
	res, err := (&CXL{}).Run(smallCfg(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d", res.Completed)
	}
	for _, o := range res.Ops {
		if o.Latency <= 0 {
			t.Fatalf("op %d latency %v", o.Op.Index, o.Latency)
		}
	}
}

// TestReadsCostMoreThanWrites: for request-response protocols an unloaded
// read (request + response) must cost more than an unloaded write.
func TestReadsCostMoreThanWrites(t *testing.T) {
	for _, p := range []Protocol{&EDM{}, &DCTCP{}, &PFC{}, &CXL{}, &PFabric{}} {
		rRes, err := p.Run(smallCfg(), []workload.Op{{Index: 0, Src: 0, Dst: 1, Size: 64, Read: true}})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		wRes, err := p.Run(smallCfg(), []workload.Op{{Index: 0, Src: 0, Dst: 1, Size: 64, Read: false}})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		r, w := rRes.Ops[0].Latency, wRes.Ops[0].Latency
		if r <= w {
			t.Errorf("%s: read %v <= write %v", p.Name(), r, w)
		}
	}
}

// TestLargeMessagesComplete exercises MTU packetization end to end.
func TestLargeMessagesComplete(t *testing.T) {
	ops := []workload.Op{
		{Index: 0, Src: 0, Dst: 1, Size: 100000, Read: false, Arrival: 0},
		{Index: 1, Src: 1, Dst: 2, Size: 50000, Read: true, Arrival: 0},
	}
	for _, p := range Protocols() {
		res, err := p.Run(smallCfg(), ops)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Completed != 2 {
			t.Fatalf("%s: completed %d", p.Name(), res.Completed)
		}
		// 100 KB at 100 Gbps is 8 us serialization: latency must be at
		// least that.
		for _, o := range res.Ops {
			min := sim.TransmissionTime(o.Op.Size, 100)
			if o.Latency < min {
				t.Errorf("%s op %d: latency %v < serialization %v", p.Name(), o.Op.Index, o.Latency, min)
			}
		}
	}
}

// TestFastpassArbiterBottleneck: under incast-free but high-rate control
// load, Fastpass latency must blow up while EDM stays flat.
func TestFastpassArbiterBottleneck(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ops := smallTrace(t, 0.8, 3000, 0.0)
	fp, err := RunNormalized(&Fastpass{}, smallCfg(), ops)
	if err != nil {
		t.Fatal(err)
	}
	edm, err := RunNormalized(&EDM{}, smallCfg(), ops)
	if err != nil {
		t.Fatal(err)
	}
	fpm := fp.NormalizedSummary(nil).Mean
	edmm := edm.NormalizedSummary(nil).Mean
	t.Logf("Fastpass %.2f vs EDM %.2f", fpm, edmm)
	if fpm < 1.5*edmm {
		t.Errorf("Fastpass %.2f not clearly above EDM %.2f", fpm, edmm)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Nodes: 1, Bandwidth: 100},
		{Nodes: 4, Bandwidth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if err := (Config{Nodes: 144, Bandwidth: 100}).Validate(); err != nil {
		t.Errorf("the §4.3 config rejected: %v", err)
	}
}

func TestProtocolByName(t *testing.T) {
	for _, p := range Protocols() {
		if got := ProtocolByName(p.Name()); got == nil {
			t.Errorf("ProtocolByName(%q) = nil", p.Name())
		}
	}
	if ProtocolByName("nope") != nil {
		t.Error("unknown name resolved")
	}
}

// TestEDMBatchingCorrectness: with mega-message batching on, every op still
// completes exactly once with all its bytes, and ops batched behind the
// pair window complete no later than without batching.
func TestEDMBatchingCorrectness(t *testing.T) {
	// 20 small writes from one sender to one receiver back to back: the
	// X=3 window forces most to wait, so batching engages.
	var ops []workload.Op
	for i := 0; i < 20; i++ {
		ops = append(ops, workload.Op{
			Index: i, Src: 0, Dst: 1, Size: 128, Read: false,
			Arrival: sim.Time(i) * 20 * sim.Nanosecond,
		})
	}
	plain, err := (&EDM{}).Run(smallCfg(), ops)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := (&EDM{BatchBytes: 2048}).Run(smallCfg(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Completed != 20 || batched.Completed != 20 {
		t.Fatalf("completed plain=%d batched=%d", plain.Completed, batched.Completed)
	}
	mean := func(r *Result) float64 {
		var s float64
		for _, o := range r.Ops {
			s += float64(o.Latency)
		}
		return s / float64(len(r.Ops))
	}
	mp, mb := mean(plain), mean(batched)
	t.Logf("mean latency plain %.0fns, batched %.0fns", mp/1000, mb/1000)
	if mb > mp*1.25 {
		t.Errorf("batching made the burst worse: %.0f vs %.0f", mb, mp)
	}
}

// TestScaleArrivalsProperty: scaling never shortens inter-arrival gaps and
// preserves op order and count.
func TestScaleArrivalsProperty(t *testing.T) {
	ops := smallTrace(t, 0.7, 500, 0.5)
	for _, p := range Protocols() {
		scaled := ScaleArrivals(p, ops)
		if len(scaled) != len(ops) {
			t.Fatalf("%s: length changed", p.Name())
		}
		for i := range scaled {
			if scaled[i].Arrival < ops[i].Arrival {
				t.Fatalf("%s: arrival shrank at %d", p.Name(), i)
			}
			if i > 0 && scaled[i].Arrival < scaled[i-1].Arrival {
				t.Fatalf("%s: order broken at %d", p.Name(), i)
			}
			if scaled[i].Size != ops[i].Size || scaled[i].Read != ops[i].Read {
				t.Fatalf("%s: op mutated", p.Name())
			}
		}
	}
}

// TestWireBytesSane: every protocol's wire cost is at least the data size
// and grows monotonically.
func TestWireBytesSane(t *testing.T) {
	for _, p := range Protocols() {
		prev := 0
		for _, n := range []int{1, 8, 64, 256, 1500, 4000, 100000} {
			w := p.WireBytes(n)
			if w < n {
				t.Errorf("%s: WireBytes(%d) = %d < data", p.Name(), n, w)
			}
			if w < prev {
				t.Errorf("%s: WireBytes not monotone at %d", p.Name(), n)
			}
			prev = w
		}
		if p.ReqWireBytes() < 0 {
			t.Errorf("%s: negative request wire", p.Name())
		}
	}
}

// TestIdealModelLinearity: for a protocol with per-byte costs, the linear
// ideal fit must be within a few percent of a directly measured mid-size
// op.
func TestIdealModelLinearity(t *testing.T) {
	cfg := smallCfg()
	for _, p := range []Protocol{&EDM{}, &DCTCP{}, &CXL{}} {
		// Trace with many distinct sizes to force the linear-fit path.
		var ops []workload.Op
		for i := 0; i < 40; i++ {
			ops = append(ops, workload.Op{
				Index: i, Src: i % 8, Dst: 8 + i%8, Size: 64 + i*777,
				Arrival: sim.Time(i) * sim.Microsecond,
			})
		}
		m, err := newIdealModel(p, cfg, ops)
		if err != nil {
			t.Fatal(err)
		}
		const mid = 9000
		fit, err := m.For(mid, false)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := p.Run(cfg, []workload.Op{{Index: 0, Src: 0, Dst: 1, Size: mid}})
		if err != nil {
			t.Fatal(err)
		}
		d := direct.Ops[0].Latency
		dev := float64(fit-d) / float64(d)
		if dev < 0 {
			dev = -dev
		}
		t.Logf("%s: fit %v vs direct %v (%.1f%%)", p.Name(), fit, d, dev*100)
		if dev > 0.05 {
			t.Errorf("%s: linear ideal deviates %.1f%% at %dB", p.Name(), dev*100, mid)
		}
	}
}

// TestProtocolsRunConcurrently: a protocol value holds no state, so one
// value may run traces from several goroutines at once and each run matches
// a sequential one. Under -race this also catches a Run that writes its
// receiver.
func TestProtocolsRunConcurrently(t *testing.T) {
	ops := smallTrace(t, 0.6, 300, 0.5)
	for _, p := range Protocols() {
		// The sequential run uses a value of its own, so the shared one is
		// first used by the concurrent runs.
		want, err := RunNormalized(ProtocolByName(p.Name()), smallCfg(), ops)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got := make([]*Result, 4)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = RunNormalized(p, smallCfg(), ops)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s run %d: %v", p.Name(), i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s run %d differs from the sequential run", p.Name(), i)
			}
		}
	}
}

// flowProbe wraps a model's flow control on the input-queued switch and
// records what the switch asked of it: how often a NIC with a packet ready
// was held, how often a packet joining an ingress closed its sender (a PFC
// pause), and the most packets each sender had between its NIC and the
// egress.
type flowProbe struct {
	iqFlow
	held, pauses        int
	inFlight, maxFlight []int
}

func (p *flowProbe) mayTransmit(i int) bool {
	ok := p.iqFlow.mayTransmit(i)
	if !ok {
		p.held++
	}
	return ok
}

func (p *flowProbe) started(i int) {
	p.iqFlow.started(i)
	p.inFlight[i]++
	p.maxFlight[i] = max(p.maxFlight[i], p.inFlight[i])
}

func (p *flowProbe) joined(i int, pkt *iqPkt) {
	open := p.iqFlow.mayTransmit(i)
	p.iqFlow.joined(i, pkt)
	if open && !p.iqFlow.mayTransmit(i) {
		p.pauses++
	}
}

func (p *flowProbe) left(i int, pkt *iqPkt) {
	p.inFlight[i]--
	p.iqFlow.left(i, pkt)
}

// TestInputQueuedHeadOfLineBlocking pins what PFC and CXL share, the
// input-queued switch. Senders 1-3 write 64 KiB each to node 0, so egress 0
// serves each of them at a third of the line rate. Sender 1 then writes
// 64 B to node 4, whose egress is idle; that packet sits behind sender 1's
// incast packets in the same NIC queue and ingress FIFO. Without the
// blocking it would finish with sender 1's whole backlog pushed through an
// idle switch; with it, it waits on egress 0's third share, about three
// times as long. The test asks for twice. And each model's
// flow control must engage: PFC pauses sender 1, and CXL's credits cap the
// flits sender 1 has between its NIC and the egress at cxlCredits.
func TestInputQueuedHeadOfLineBlocking(t *testing.T) {
	const incast, victim = 64 << 10, 64
	cfg := Config{Nodes: 5, Bandwidth: 100}
	ops := []workload.Op{
		{Index: 0, Src: 1, Dst: 0, Size: incast},
		{Index: 1, Src: 2, Dst: 0, Size: incast},
		{Index: 2, Src: 3, Dst: 0, Size: incast},
		{Index: 3, Src: 1, Dst: 4, Size: victim, Arrival: sim.Nanosecond},
	}
	for _, tc := range []struct {
		p interface {
			Protocol
			build(Config, *sim.Engine, *tracker) *iqSwitch
		}
		engaged func(*flowProbe) error
	}{
		{PFC{}, func(p *flowProbe) error {
			if p.pauses == 0 {
				return fmt.Errorf("no ingress paused its sender")
			}
			return nil
		}},
		{CXL{}, func(p *flowProbe) error {
			for i, n := range p.maxFlight {
				if n > cxlCredits {
					return fmt.Errorf("sender %d had %d flits past its NIC, over its %d credits", i, n, cxlCredits)
				}
			}
			if p.maxFlight[1] < cxlCredits {
				return fmt.Errorf("sender 1 had at most %d flits past its NIC: its %d credits never ran out", p.maxFlight[1], cxlCredits)
			}
			return nil
		}},
	} {
		t.Run(tc.p.Name(), func(t *testing.T) {
			var probe *flowProbe
			res, err := drive(tc.p.Name(), cfg, ops, func(eng *sim.Engine, track *tracker) func(workload.Op) {
				s := tc.p.build(cfg, eng, track)
				probe = &flowProbe{iqFlow: s.flow, inFlight: make([]int, cfg.Nodes), maxFlight: make([]int, cfg.Nodes)}
				s.flow = probe
				return s.arrive
			})
			if err != nil {
				t.Fatal(err)
			}
			alone, err := tc.p.Run(cfg, []workload.Op{{Src: 1, Dst: 4, Size: incast + victim}})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range res.Ops {
				if bound := 2 * alone.Ops[0].Latency; o.Op.Index == 3 && o.Latency <= bound {
					t.Errorf("victim latency %v, not above %v, twice sender 1's whole backlog through an idle switch: no head-of-line blocking", o.Latency, bound)
				}
			}
			if probe.held == 0 {
				t.Error("the flow control never held a NIC with a packet ready")
			}
			if err := tc.engaged(probe); err != nil {
				t.Error(err)
			}
		})
	}
}
