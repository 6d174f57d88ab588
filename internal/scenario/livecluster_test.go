package scenario

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestLiveClusterDeterministic runs the built-in 16-node live-cluster
// scenario (a node is killed mid-run) twice: the dual-homed service over N
// loopbacks must lose zero ops, recover within the retry budget, and render
// byte-identical reports.
func TestLiveClusterDeterministic(t *testing.T) {
	run := func() (*Report, string) {
		rep, err := Run(Builtin("live-cluster"))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Format(&buf); err != nil {
			t.Fatal(err)
		}
		return rep, buf.String()
	}
	rep, a := run()
	_, b := run()
	if a != b {
		t.Fatalf("live-cluster backend not deterministic:\n%s\n---\n%s", a, b)
	}
	if rep.Backend != BackendLiveCluster {
		t.Fatalf("backend %q", rep.Backend)
	}
	if rep.Completed != rep.Issued || rep.Dropped != 0 {
		t.Fatalf("a mid-run node kill must lose zero ops on a dual-homed cluster: %+v", rep)
	}
	c := rep.Cluster
	if c == nil {
		t.Fatal("no cluster section in a live-cluster report")
	}
	if c.MemNodes != 16 {
		t.Fatalf("mem nodes %d", c.MemNodes)
	}
	if c.Failovers == 0 {
		t.Error("killing a node triggered no failovers")
	}
	if c.FinalEpoch == 0 {
		t.Error("node kill never advanced the map epoch")
	}
	if c.Rebalances == 0 || c.MovedBytes == 0 {
		t.Errorf("node kill triggered no re-mirroring: %+v", c)
	}
	if c.LostExtents != 0 {
		t.Errorf("%d extents lost on a single-node kill", c.LostExtents)
	}
	// Recovery is bounded: detection delay plus the re-mirror pass, well
	// under the virtual run horizon.
	if c.RecoveryUS.N == 0 || sim.Time(c.RecoveryUS.Max*float64(sim.Microsecond)) > rep.Horizon {
		t.Errorf("recovery unbounded or unmeasured: %+v (horizon %v)", c.RecoveryUS, rep.Horizon)
	}
	if !strings.Contains(a, "cluster faults") {
		t.Errorf("report rendering missing cluster lines:\n%s", a)
	}
}

// TestLiveClusterJoin: a node that joins mid-run starts outside the
// membership, is admitted at the event time, and receives its extents.
func TestLiveClusterJoin(t *testing.T) {
	spec := &Spec{
		Name: "cluster-join", Backend: BackendLiveCluster, Nodes: 4, MemNodes: 4, Seed: 9,
		Phases: []Phase{
			{Name: "p", Count: 300, Load: 0.3, ReadFrac: 0.5, Profile: "fixed64"},
		},
		Events: []Event{
			{Kind: NodeJoin, Node: 3, At: 3 * sim.Microsecond},
		},
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 {
		t.Fatalf("join lost %d ops", rep.Dropped)
	}
	c := rep.Cluster
	// Pre-darkened leave (epoch 1) plus the join (epoch 2).
	if c.FinalEpoch != 2 {
		t.Fatalf("final epoch %d, want 2", c.FinalEpoch)
	}
	// One copy of node 3's extents: the pre-join MarkDead's change is
	// replayed too, but every holder it added has given the extent back.
	if c.Rebalances != 1 || c.MovedBytes != 15728640 {
		t.Fatalf("join re-mirror onto the new node: %+v, want one pass of 15728640 B", c)
	}
}

// TestLiveClusterValidate: the backend requires at least two memory nodes
// and defaults MemNodes to Nodes.
func TestLiveClusterValidate(t *testing.T) {
	s := &Spec{Name: "v", Backend: BackendLiveCluster, Nodes: 4,
		Phases: []Phase{{Count: 10, Load: 0.5, Profile: "fixed64"}}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.MemNodes != 4 {
		t.Fatalf("MemNodes default %d, want Nodes", s.MemNodes)
	}
	bad := &Spec{Name: "v", Backend: BackendLiveCluster, Nodes: 4, MemNodes: 1,
		Phases: []Phase{{Count: 10, Load: 0.5, Profile: "fixed64"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("single-node cluster accepted")
	}
	// Events must target memory nodes, not compute nodes.
	evt := &Spec{Name: "v", Backend: BackendLiveCluster, Nodes: 2, MemNodes: 8,
		Phases: []Phase{{Count: 10, Load: 0.5, Profile: "fixed64"}},
		Events: []Event{{Kind: NodeLeave, Node: 7, At: sim.Microsecond}}}
	if err := evt.Validate(); err != nil {
		t.Fatalf("event on memory node 7 of 8 rejected: %v", err)
	}
}

// TestLiveClusterFlapThenPartnerLeaves: a link flap on node 1 evicts it when
// it misses a write, and node 2, which holds extents with it, leaves. The
// driver re-mirrors the eviction before the next op, so a leave after that
// loses nothing. A kill that lands between the evicting op and the next one
// (the trace's ops around 1.06-1.115 us) holds the re-mirror until the
// leave step; it must then pass over the node that left (the extents that
// had no other holder count as lost) instead of timing out on it and
// aborting the run. Either way the driver rejoins node 1 once its flap has
// ended and no kill is pending, in a pass of its own.
func TestLiveClusterFlapThenPartnerLeaves(t *testing.T) {
	for _, tc := range []struct {
		leave      sim.Time
		rebalances int
		lost       bool
	}{
		{4 * sim.Microsecond, 3, false},
		{1090 * sim.Nanosecond, 2, true},
	} {
		spec := &Spec{
			Name: "flap-then-leave", Backend: BackendLiveCluster, Nodes: 4, MemNodes: 4, Seed: 9,
			Phases: []Phase{
				{Name: "p", Count: 600, Load: 0.3, ReadFrac: 0.5, Profile: "fixed64"},
			},
			Events: []Event{
				{Kind: LinkDown, Node: 1, At: sim.Microsecond, Until: 2 * sim.Microsecond},
				{Kind: NodeLeave, Node: 2, At: tc.leave},
			},
		}
		rep, err := Run(spec)
		if err != nil {
			t.Fatalf("leave at %v: %v", tc.leave, err)
		}
		c := rep.Cluster
		// The flap's eviction, the leave, an eviction of the leaving node
		// for a write it missed while dark before the leave was detected,
		// and node 1's rejoin.
		if c.FinalEpoch != 4 {
			t.Fatalf("leave at %v: final epoch %d, want 4", tc.leave, c.FinalEpoch)
		}
		if c.Rebalances != tc.rebalances || (c.LostExtents > 0) != tc.lost || c.Owed != 0 {
			t.Fatalf("leave at %v: %+v, want %d passes, lost extents %v, nothing owed", tc.leave, c, tc.rebalances, tc.lost)
		}
	}
}

// TestLiveClusterOverlappingLeaves: nodes 1 and 2 are killed 0.1 us apart,
// so node 1's leave step runs while node 2 is dark but still in the map. A
// read-only trace misses no write on node 2, so nothing evicts it first.
// The driver holds node 1's pass until node 2's leave step, whose one pass
// re-mirrors both; it must not time out on node 2 and abort the run. The
// extents that both nodes held had no copy left and count as lost.
func TestLiveClusterOverlappingLeaves(t *testing.T) {
	for _, tc := range []struct{ memNodes, lost int }{{4, 10}, {8, 4}, {16, 1}} {
		spec := &Spec{
			Name: "overlapping-leaves", Backend: BackendLiveCluster,
			Nodes: tc.memNodes, MemNodes: tc.memNodes, Seed: 3,
			Phases: []Phase{
				{Name: "p", Count: 600, Load: 0.3, ReadFrac: 1, Profile: "fixed64"},
			},
			Events: []Event{
				{Kind: NodeLeave, Node: 1, At: sim.Microsecond},
				{Kind: NodeLeave, Node: 2, At: 1100 * sim.Nanosecond},
			},
		}
		rep, err := Run(spec)
		if err != nil {
			t.Fatalf("%d memory nodes: %v", tc.memNodes, err)
		}
		c := rep.Cluster
		if c.FinalEpoch != 2 || c.Rebalances != 1 || c.Owed != 0 || c.LostExtents != tc.lost {
			t.Fatalf("%d memory nodes: %+v, want epoch 2, 1 pass, nothing owed, %d extents lost", tc.memNodes, c, tc.lost)
		}
	}
}

// TestLiveClusterFlapsDrained: the live-cluster-flaps builtin, eight link
// flaps over eight memory nodes and no leave event. Each flapped node that misses a write is evicted, the
// driver runs the owed re-mirror before the next op and rejoins the node
// once its flap ends, so the run ends with every map change re-mirrored and
// every read intact.
func TestLiveClusterFlapsDrained(t *testing.T) {
	rep, err := Run(Builtin("live-cluster-flaps"))
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cluster
	if rep.Dropped != 0 || rep.Mismatched != 0 {
		t.Fatalf("dropped %d, mismatched %d; want every op intact", rep.Dropped, rep.Mismatched)
	}
	if c.FinalEpoch == 0 || c.Rebalances == 0 || c.MovedBytes == 0 || c.Owed != 0 || c.LostExtents != 0 {
		t.Fatalf("%+v: want evictions re-mirrored, nothing owed or lost", c)
	}
}
