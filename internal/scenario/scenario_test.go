package scenario

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func render(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Format(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestChaos1024Deterministic is the acceptance scenario: a 1024-node fleet
// under phase-shifted load with random link flaps and corruption bursts
// must run to completion and produce byte-identical stats across two runs
// with the same seed — and different stats with a different seed.
func TestChaos1024Deterministic(t *testing.T) {
	spec := Builtin("chaos-1024")
	if spec == nil {
		t.Fatal("chaos-1024 not registered")
	}
	if spec.Nodes != 1024 {
		t.Fatalf("chaos-1024 has %d nodes", spec.Nodes)
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Builtin("chaos-1024"))
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := render(t, a), render(t, b)
	if ra != rb {
		t.Fatalf("same seed produced different reports:\n--- a ---\n%s\n--- b ---\n%s", ra, rb)
	}
	other := Builtin("chaos-1024")
	other.Seed = 2
	c, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if rc := render(t, c); rc == ra {
		t.Fatal("different seed produced an identical report")
	}
	if a.Completed == 0 || a.Completed+a.Dropped != a.Issued {
		t.Fatalf("op accounting broken: issued %d completed %d dropped %d",
			a.Issued, a.Completed, a.Dropped)
	}
	if a.Events < spec.Chaos.LinkFlaps+spec.Chaos.CorruptBursts {
		t.Fatalf("chaos did not expand: %d events", a.Events)
	}
	if a.Failovers == 0 && a.Dropped == 0 {
		t.Error("12 link flaps over the run touched no ops (chaos not applied?)")
	}
	if a.Corrupted == 0 {
		t.Error("6 corruption bursts hit no ops")
	}
	if len(a.Phases) != 3 {
		t.Fatalf("expected 3 phase reports, got %d", len(a.Phases))
	}
	for _, p := range a.Phases {
		if p.Done == 0 || p.AbsNs.N != p.Done {
			t.Fatalf("phase %s: done=%d latency samples=%d", p.Name, p.Done, p.AbsNs.N)
		}
	}
	t.Logf("chaos-1024:\n%s", ra)
}

// TestCorruptionCostsLatency: corrupted ops pay the retransmission penalty,
// so the corrupted population's mean latency must exceed the clean one's.
func TestCorruptionPenaltyApplied(t *testing.T) {
	spec := &Spec{
		Name: "corrupt-only", Backend: BackendNetsim, Nodes: 64, Seed: 5,
		Protocol: "EDM",
		Phases:   []Phase{{Name: "p", Count: 2000, Load: 0.4, ReadFrac: 0.5, Profile: "fixed64"}},
		Chaos:    Chaos{CorruptBursts: 8, CorruptProb: 0.9},
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupted == 0 {
		t.Fatal("no ops corrupted at prob 0.9 across 8 bursts")
	}
	if rep.Failovers != 0 || rep.Dropped != 0 {
		t.Fatalf("corruption-only scenario recorded failovers=%d dropped=%d",
			rep.Failovers, rep.Dropped)
	}
}

// TestFailoverPolicies: the same outage either defers ops (failover, with
// recovery times recorded) or discards them (drop).
func TestFailoverPolicies(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name: "outage", Backend: BackendNetsim, Nodes: 32, Seed: 3,
			Protocol: "EDM",
			Phases:   []Phase{{Name: "p", Count: 3000, Load: 0.5, ReadFrac: 0.5, Profile: "fixed64"}},
			Events: []Event{
				{Kind: LinkDown, Node: 4, At: 0, Until: 400 * sim.Microsecond},
			},
		}
	}
	fo, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	if fo.Failovers == 0 {
		t.Fatal("outage over node 4 deferred no ops")
	}
	if fo.Recovery.N != fo.Failovers || fo.Recovery.Min <= 0 {
		t.Fatalf("recovery summary inconsistent: %+v vs %d failovers", fo.Recovery, fo.Failovers)
	}
	// Deferred ops re-issue after the outage plus the detection delay.
	if min := fo.Recovery.Min; min < base().DetectDelay.Microseconds() {
		t.Logf("min recovery %.3fus", min)
	}
	dropped := base()
	dropped.Policy = Drop
	dr, err := Run(dropped)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Dropped == 0 || dr.Failovers != 0 {
		t.Fatalf("drop policy: dropped=%d failovers=%d", dr.Dropped, dr.Failovers)
	}
	if dr.Completed+dr.Dropped != dr.Issued {
		t.Fatalf("drop accounting: %d+%d != %d", dr.Completed, dr.Dropped, dr.Issued)
	}
}

// TestNodeLeaveJoin: departures drop subsequent ops, joins drop earlier
// ones.
func TestNodeLeaveJoin(t *testing.T) {
	spec := &Spec{
		Name: "churn", Backend: BackendNetsim, Nodes: 16, Seed: 9,
		Protocol: "DCTCP",
		Phases:   []Phase{{Name: "p", Count: 2000, Load: 0.5, ReadFrac: 0.5, Profile: "fixed64"}},
		Events: []Event{
			{Kind: NodeLeave, Node: 2, At: 100 * sim.Microsecond},
			{Kind: NodeJoin, Node: 9, At: 200 * sim.Microsecond},
		},
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 {
		t.Fatal("churn dropped no ops")
	}
	if rep.Completed+rep.Dropped != rep.Issued {
		t.Fatalf("accounting: %d+%d != %d", rep.Completed, rep.Dropped, rep.Issued)
	}
	// A join alone must DROP pre-join ops even under the default failover
	// policy — a node that is not there yet has no survivor plane — and
	// must record no failovers.
	joinOnly := &Spec{
		Name: "join-only", Backend: BackendNetsim, Nodes: 16, Seed: 9,
		Protocol: "DCTCP",
		Phases:   []Phase{{Name: "p", Count: 2000, Load: 0.5, ReadFrac: 0.5, Profile: "fixed64"}},
		Events:   []Event{{Kind: NodeJoin, Node: 9, At: 200 * sim.Microsecond}},
	}
	jr, err := Run(joinOnly)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Dropped == 0 {
		t.Fatal("pre-join ops were not dropped")
	}
	if jr.Failovers != 0 {
		t.Fatalf("join deferred %d ops as failovers (no survivor plane exists)", jr.Failovers)
	}
}

// TestFabricBackendFaults runs the block-level builtin: real link disable
// and corruption injection on a live fabric.
func TestFabricBackendFaults(t *testing.T) {
	spec := Builtin("failover-16")
	if spec == nil {
		t.Fatal("failover-16 not registered")
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Backend != BackendFabric {
		t.Fatalf("backend %s", a.Backend)
	}
	if a.Completed == 0 {
		t.Fatal("nothing completed on the fabric")
	}
	if a.Links.Corrupted == 0 {
		t.Error("corruption burst injected no block errors")
	}
	if a.Links.Dropped == 0 {
		t.Error("link outage dropped no blocks")
	}
	if a.Dropped == 0 && a.Timeouts == 0 && a.Failovers == 0 {
		t.Error("outage had no observable op-level effect")
	}
	b, err := Run(Builtin("failover-16"))
	if err != nil {
		t.Fatal(err)
	}
	if render(t, a) != render(t, b) {
		t.Fatal("fabric backend not deterministic")
	}
	t.Logf("failover-16:\n%s", render(t, a))
}

// TestFabricChaosSoak: seeded chaos on the block-level backend is
// deterministic and injects real corruption.
func TestFabricChaosSoak(t *testing.T) {
	a, err := Run(Builtin("corruption-soak"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Builtin("corruption-soak"))
	if err != nil {
		t.Fatal(err)
	}
	if render(t, a) != render(t, b) {
		t.Fatal("corruption-soak not deterministic")
	}
	if a.Links.Corrupted == 0 {
		t.Error("soak injected no corruption")
	}
}

// TestFabricRejectsOversizedFleet: >512 ports must be redirected to the
// flow-level backend, not panic.
func TestFabricRejectsOversizedFleet(t *testing.T) {
	spec := &Spec{
		Name: "too-big", Backend: BackendFabric, Nodes: 1024, Seed: 1,
		Phases: []Phase{{Name: "p", Count: 100, Load: 0.5, Profile: "fixed64"}},
	}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "netsim") {
		t.Fatalf("oversized fabric fleet: err=%v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []*Spec{
		{},
		{Name: "x", Nodes: 1, Phases: []Phase{{Count: 1, Load: 0.5}}},
		{Name: "x", Nodes: 4},
		{Name: "x", Nodes: 4, Phases: []Phase{{Count: 0, Load: 0.5}}},
		{Name: "x", Nodes: 4, Phases: []Phase{{Count: 1, Load: 1.5}}},
		{Name: "x", Nodes: 4, Phases: []Phase{{Count: 1, Load: 0.5, Profile: "nope"}}},
		{Name: "x", Nodes: 4, Backend: "quantum", Phases: []Phase{{Count: 1, Load: 0.5}}},
		{Name: "x", Nodes: 4, Phases: []Phase{{Count: 1, Load: 0.5}},
			Events: []Event{{Kind: LinkDown, Node: 9, At: 0, Until: 1}}},
		{Name: "x", Nodes: 4, Phases: []Phase{{Count: 1, Load: 0.5}},
			Events: []Event{{Kind: "meteor", Node: 0, At: 0, Until: 1}}},
		{Name: "x", Nodes: 4, Phases: []Phase{{Count: 1, Load: 0.5}},
			Events: []Event{{Kind: LinkDown, Node: 0, At: 5, Until: 5}}},
		// The block-level testbed's links are 25 GbE whatever the spec says.
		{Name: "x", Nodes: 4, Backend: BackendFabric, Bandwidth: 100, Phases: []Phase{{Count: 1, Load: 0.5}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
	for _, s := range Builtins() {
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", s.Name, err)
		}
	}
}

func TestLoadJSON(t *testing.T) {
	src := `{
		"name": "from-json", "nodes": 64, "seed": 7, "protocol": "DCTCP",
		"phases": [{"name": "p", "count": 500, "load": 0.5, "read_frac": 0.5, "profile": "memcached"}],
		"events": [{"kind": "link-down", "node": 3, "at": 1000000, "until": 2000000}],
		"chaos": {"link_flaps": 2, "corrupt_bursts": 1}
	}`
	spec, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Protocol != "DCTCP" || spec.Nodes != 64 {
		t.Fatalf("parsed %+v", spec)
	}
	if _, err := Load(strings.NewReader(`{"name": "x", "bogus_field": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("JSON scenario ran nothing")
	}
}

// TestExpandChaosDeterministic: the chaos schedule is a pure function of
// seed and config.
func TestExpandChaosDeterministic(t *testing.T) {
	c := Chaos{LinkFlaps: 10, FlapMin: sim.Microsecond, FlapMax: 5 * sim.Microsecond,
		CorruptBursts: 5, BurstMin: sim.Microsecond, BurstMax: 2 * sim.Microsecond,
		CorruptOneIn: 64, CorruptProb: 0.5}
	h := 10 * sim.Millisecond
	a := expandChaos(workload.NewPartition(1).Sub("chaos"), c, 100, h)
	b := expandChaos(workload.NewPartition(1).Sub("chaos"), c, 100, h)
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("expanded %d/%d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].At < 0 || a[i].Until > h || a[i].Until <= a[i].At {
			t.Fatalf("event %d window invalid: %+v", i, a[i])
		}
		if a[i].Node < 0 || a[i].Node >= 100 {
			t.Fatalf("event %d node out of range: %+v", i, a[i])
		}
	}
	d := expandChaos(workload.NewPartition(2).Sub("chaos"), c, 100, h)
	same := true
	for i := range a {
		if a[i] != d[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical chaos")
	}
}
