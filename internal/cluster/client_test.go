package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memctl"
	"repro/internal/rmem"
	"repro/internal/sim"
	"repro/internal/wire"
)

const (
	testSlabBytes   = 4 << 20
	testExtentBytes = 64 << 10
)

// testNode is one in-process memory node with a kill switch: dead nodes drop
// every datagram, so requests to them burn the retry budget.
type testNode struct {
	cl   *rmem.Client
	dead atomic.Bool
}

// newTestCluster builds a connected cluster over n loopback nodes with a
// tight retry budget (a dead-node sub fails over in ~2ms).
func newTestCluster(t testing.TB, n int, cfg Config) (*Client, []*testNode) {
	t.Helper()
	return newTestClusterRetry(t, n, cfg, wire.ConnConfig{RetryTimeout: time.Millisecond, MaxRetries: 1})
}

// newTestClusterRetry is newTestCluster with the node clients' retry budget
// chosen by the caller (a long one keeps requests to a dead node pending).
func newTestClusterRetry(t testing.TB, n int, cfg Config, retry wire.ConnConfig) (*Client, []*testNode) {
	t.Helper()
	if cfg.ExtentBytes == 0 {
		cfg.ExtentBytes = testExtentBytes
	}
	nodes := make([]*testNode, n)
	clients := make([]*rmem.Client, n)
	for i := range nodes {
		nodes[i] = newTestNode(t, testSlabBytes, retry)
		clients[i] = nodes[i].cl
	}
	cc, err := New(clients, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc, nodes
}

// newTestNode connects a client to one in-process memory node of slab bytes
// over a loopback that drops everything once the node is killed.
func newTestNode(t testing.TB, slab uint64, retry wire.ConnConfig) *testNode {
	t.Helper()
	tn := &testNode{}
	srv, err := rmem.NewServer(rmem.ServerConfig{Geometry: rmem.Geometry{SlabBytes: slab}})
	if err != nil {
		t.Fatal(err)
	}
	lb := wire.NewLoopback(wire.LoopbackConfig{
		Fault: func(sim.Time, wire.Dir, []byte) wire.Fault {
			if tn.dead.Load() {
				return wire.FaultDrop
			}
			return wire.FaultNone
		},
	})
	cl := rmem.NewClient(lb.ClientPipe(), rmem.ClientConfig{
		Window: 8,
		Retry:  retry,
	})
	lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
	lb.BindClient(cl.Deliver)
	if err := cl.Connect(); err != nil {
		t.Fatal(err)
	}
	tn.cl = cl
	return tn
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// seedAll writes want at the start of every extent through the cluster.
func seedAll(t *testing.T, cc *Client, want []byte) {
	t.Helper()
	for e := 0; e < cc.Map().Extents(); e++ {
		if err := rmem.WriteSync(cc, uint64(e)*cc.ExtentBytes(), want); err != nil {
			t.Fatalf("seed extent %d: %v", e, err)
		}
	}
}

func TestClusterRoundTripSplit(t *testing.T) {
	cc, _ := newTestCluster(t, 4, Config{Seed: 42})
	// Spans the extent 0 / extent 1 boundary: routed as two segments, very
	// likely to two different primaries.
	addr := uint64(testExtentBytes) - 100
	want := pattern(200, 3)
	if err := rmem.WriteSync(cc, addr, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := rmem.ReadSync(cc, addr, len(want))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("split round trip corrupted data")
	}
	if n := cc.Metrics().SplitOps.Load(); n != 2 {
		t.Fatalf("split ops %d, want 2 (one write + one read)", n)
	}
}

func TestClusterWriteThrough(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	addr := uint64(2 * testExtentBytes)
	want := pattern(128, 9)
	if err := rmem.WriteSync(cc, addr, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	e, err := cc.Map().Locate(addr)
	if err != nil {
		t.Fatal(err)
	}
	pri, mir := cc.Map().Extent(e)
	// Identity address mapping: the same address on both replicas.
	for _, n := range []int{pri, mir} {
		got, err := nodes[n].cl.ReadSync(addr, len(want))
		if err != nil {
			t.Fatalf("direct read node %d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node %d replica does not hold the written data", n)
		}
	}
}

func TestClusterReadFailover(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	addr := uint64(5 * testExtentBytes)
	want := pattern(256, 1)
	if err := rmem.WriteSync(cc, addr, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	e, _ := cc.Map().Locate(addr)
	pri, _ := cc.Map().Extent(e)
	nodes[pri].dead.Store(true)
	got, err := rmem.ReadSync(cc, addr, len(want))
	if err != nil {
		t.Fatalf("read with dead primary: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failover read returned wrong data")
	}
	if n := cc.Metrics().Failovers.Load(); n == 0 {
		t.Fatal("failover not counted")
	}
}

func TestClusterKillMirrorLosesNoAcks(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	addr := uint64(7 * testExtentBytes)
	e, _ := cc.Map().Locate(addr)
	pri, mir := cc.Map().Extent(e)
	nodes[mir].dead.Store(true)
	// Every write is acked by the primary alone; none may fail.
	want := pattern(64, 5)
	for i := 0; i < 4; i++ {
		if err := rmem.WriteSync(cc, addr+uint64(i)*64, want); err != nil {
			t.Fatalf("write %d with dead mirror: %v", i, err)
		}
	}
	got, err := nodes[pri].cl.ReadSync(addr, 64)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("primary lost an acked write: %v", err)
	}
	if n := cc.Metrics().Failovers.Load(); n == 0 {
		t.Fatal("one-replica writes not counted as failovers")
	}
}

// TestClusterRMWWriteThrough runs every opcode of the RMW menu on one word
// and checks, after each, that the primary's word equals the mirror's: the
// computed stored value is written through before the callback fires, and
// a CAS that does not swap writes nothing through.
func TestClusterRMWWriteThrough(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	addr := uint64(3 * testExtentBytes)
	e, _ := cc.Map().Locate(addr)
	pri, mir := cc.Map().Extent(e)
	neg3 := uint64(1<<64 - 3) // int64(-3)
	for _, tc := range []struct {
		op         memctl.RMWOp
		args       []uint64
		result, is uint64 // the op's result, and the word it leaves
	}{
		{memctl.OpCAS, []uint64{0, 10}, 1, 10},
		{memctl.OpCAS, []uint64{0, 99}, 0, 10},
		{memctl.OpFetchAdd, []uint64{5}, 10, 15},
		{memctl.OpSwap, []uint64{0xf0f0}, 15, 0xf0f0},
		{memctl.OpAnd, []uint64{0xff00}, 0xf0f0, 0xf000},
		{memctl.OpOr, []uint64{0x000f}, 0xf000, 0xf00f},
		{memctl.OpXor, []uint64{0xffff}, 0xf00f, 0x0ff0},
		{memctl.OpMin, []uint64{neg3}, 0x0ff0, neg3}, // signed: -3 < 0x0ff0
		{memctl.OpMax, []uint64{42}, neg3, 42},
	} {
		v, err := rmem.RMWSync(cc, addr, tc.op, tc.args...)
		if err != nil || v != tc.result {
			t.Fatalf("%v %v = %d, %v; want %d", tc.op, tc.args, v, err, tc.result)
		}
		var words [2]uint64
		for i, node := range []int{pri, mir} {
			b, err := rmem.ReadSync(nodes[node].cl, addr, 8)
			if err != nil {
				t.Fatalf("%v: read node %d: %v", tc.op, node, err)
			}
			words[i] = binary.LittleEndian.Uint64(b)
		}
		if words[0] != tc.is || words[1] != tc.is {
			t.Fatalf("after %v %v: primary %#x, mirror %#x; want both %#x", tc.op, tc.args, words[0], words[1], tc.is)
		}
	}
}

func TestClusterRMWFailover(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	addr := uint64(9 * testExtentBytes)
	if _, err := rmem.RMWSync(cc, addr, memctl.OpSwap, 77); err != nil {
		t.Fatalf("seed swap: %v", err)
	}
	e, _ := cc.Map().Locate(addr)
	pri, _ := cc.Map().Extent(e)
	nodes[pri].dead.Store(true)
	v, err := rmem.RMWSync(cc, addr, memctl.OpFetchAdd, 1)
	if err != nil {
		t.Fatalf("RMW with dead primary: %v", err)
	}
	if v != 77 {
		t.Fatalf("failover RMW saw %d, want the mirrored 77", v)
	}
	if n := cc.Metrics().Failovers.Load(); n == 0 {
		t.Fatal("RMW failover not counted")
	}
}

func TestClusterAllReplicasDead(t *testing.T) {
	cc, nodes := newTestCluster(t, 2, Config{Seed: 1})
	// Two nodes: every extent is homed on both; killing both strands all.
	nodes[0].dead.Store(true)
	nodes[1].dead.Store(true)
	_, err := rmem.ReadSync(cc, 0, 64)
	if err == nil {
		t.Fatal("read with every replica dead succeeded")
	}
	if !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("err = %v, want a wire.ErrTimeout", err)
	}
	if err := rmem.WriteSync(cc, 0, make([]byte, 64)); !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("write err = %v, want a wire.ErrTimeout", err)
	}
}

// homedOn is the address of the first extent whose primary is node.
func homedOn(t *testing.T, cc *Client, node int) uint64 {
	t.Helper()
	m := cc.Map()
	for e := 0; e < m.Extents(); e++ {
		if pri, _ := m.Extent(e); pri == node {
			return uint64(e) * cc.ExtentBytes()
		}
	}
	t.Fatalf("no extent has node %d as its primary", node)
	return 0
}

// readSeeing reads n bytes at addr and reports whether node was still in
// the map when the read's callback fired.
func readSeeing(t *testing.T, cc *Client, addr uint64, n, node int) ([]byte, bool) {
	t.Helper()
	var got []byte
	var alive bool
	done := make(chan error, 1)
	err := cc.Read(addr, n, func(d []byte, err error) {
		alive = cc.Map().Alive(node)
		got = append([]byte(nil), d...)
		done <- err
	})
	if err == nil {
		err = <-done
	}
	if err != nil {
		t.Fatalf("read at %#x: %v", addr, err)
	}
	return got, alive
}

// TestClusterReadMissEvicts: a read whose primary times out fails over to
// the mirror, and the mirror's answer evicts the primary before the read's
// callback fires. The next read goes straight to the surviving replica, and
// the eviction's re-mirror stays owed until the caller's Rebalance.
func TestClusterReadMissEvicts(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	const dead = 1
	addr := homedOn(t, cc, dead)
	want := pattern(64, 13)
	if err := rmem.WriteSync(cc, addr, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	nodes[dead].dead.Store(true)
	got, alive := readSeeing(t, cc, addr, len(want), dead)
	if !bytes.Equal(got, want) {
		t.Fatalf("failover read %x..., want %x...", got[:4], want[:4])
	}
	if alive {
		t.Fatalf("node %d, which missed the read, was still in the map when the read completed", dead)
	}
	mt := cc.Metrics()
	if mt.Failovers.Load() != 1 || mt.Evictions.Load() != 1 || cc.Epoch() != 1 {
		t.Fatalf("failovers %d, evictions %d, epoch %d: want one of each",
			mt.Failovers.Load(), mt.Evictions.Load(), cc.Epoch())
	}
	if got, err := rmem.ReadSync(cc, addr, len(want)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after eviction: %v", err)
	}
	if n := mt.Failovers.Load(); n != 1 {
		t.Fatal("post-eviction read still failed over")
	}
	if n := mt.RemirrorsOwed.Load(); n == 0 {
		t.Fatal("cluster_remirrors_owed 0 before Rebalance, want the eviction's extents owed")
	}
	if _, err := cc.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if n := mt.RemirrorsOwed.Load(); n != 0 {
		t.Fatalf("rebalance left %d re-mirrors owed", n)
	}
}

// TestClusterMarkDeadOfEvictedNodeChangesNothing: marking a node that is
// already out of the map bumps no epoch, queues no re-mirror and counts no
// eviction.
func TestClusterMarkDeadOfEvictedNodeChangesNothing(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	const dead = 1
	nodes[dead].dead.Store(true)
	if _, alive := readSeeing(t, cc, homedOn(t, cc, dead), 64, dead); alive {
		t.Fatalf("read failover left node %d in the map", dead)
	}
	mt := cc.Metrics()
	epoch, owed, evictions := cc.Epoch(), mt.RemirrorsOwed.Load(), mt.Evictions.Load()
	if err := cc.MarkDead(dead); err != nil {
		t.Fatal(err)
	}
	if cc.Epoch() != epoch || mt.RemirrorsOwed.Load() != owed || mt.Evictions.Load() != evictions {
		t.Fatalf("MarkDead of evicted node %d: epoch %d -> %d, owed %d -> %d, evictions %d -> %d; want no change",
			dead, epoch, cc.Epoch(), owed, mt.RemirrorsOwed.Load(), evictions, mt.Evictions.Load())
	}
}

// TestClusterTwoNodeReadFailover: with two nodes the primary that a read
// missed cannot be evicted, and the read still returns the mirror's bytes:
// a read leaves no stale replica behind, so it does not fail on that.
func TestClusterTwoNodeReadFailover(t *testing.T) {
	cc, nodes := newTestCluster(t, 2, Config{Seed: 42})
	want := pattern(64, 17)
	if err := rmem.WriteSync(cc, 0, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	pri, _ := cc.Map().Extent(0)
	nodes[pri].dead.Store(true)
	got, err := rmem.ReadSync(cc, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read with node %d of two dark: %v", pri, err)
	}
	if !cc.Map().Alive(pri) || cc.Epoch() != 0 {
		t.Fatalf("node %d evicted from a two-node map (epoch %d)", pri, cc.Epoch())
	}
}

// TestClusterFailoverTargetAfterRehome pins the failover preference order.
// Under the routing epoch a timed-out primary fails over to the mirror; but
// once the map re-homes an extent (the old mirror promoted to primary, a
// fresh node as the new mirror), an in-flight op that timed out on the dead
// old primary must fail over to the promoted primary — the replica holding
// the data — never to the not-yet-rebalanced empty mirror.
func TestClusterFailoverTargetAfterRehome(t *testing.T) {
	cc, _ := newTestCluster(t, 4, Config{Seed: 42})
	old := cc.Map()
	// Same-epoch sanity: each replica's alternative is the other replica.
	for e := 0; e < old.Extents(); e++ {
		pri, mir := old.Extent(e)
		addr := uint64(e) * cc.ExtentBytes()
		if s := (&subOp{addr: addr, node: pri}); !cc.retarget(s, true) || s.node != mir {
			t.Fatalf("extent %d: primary timeout failed over to %d, want mirror %d", e, s.node, mir)
		}
		if s := (&subOp{addr: addr, node: mir}); !cc.retarget(s, true) || s.node != pri {
			t.Fatalf("extent %d: mirror timeout failed over to %d, want primary %d", e, s.node, pri)
		}
	}
	const dead = 1
	if err := cc.MarkDead(dead); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < old.Extents(); e++ {
		pri, mir := old.Extent(e)
		if pri != dead {
			continue
		}
		// An op routed under the old epoch whose retry budget expired on the
		// dead primary after the re-home: the only replica with the data is
		// the promoted old mirror.
		s := &subOp{addr: uint64(e) * cc.ExtentBytes(), node: dead}
		if !cc.retarget(s, true) {
			t.Fatalf("extent %d: no failover target after re-home", e)
		}
		if s.node != mir {
			t.Fatalf("extent %d: failover chose node %d, want the promoted old mirror %d (the replica holding the data)", e, s.node, mir)
		}
	}
}

// TestClusterRebalanceFailureSurfacedAndRetried: a pass whose only copy
// source is unreachable fails, counts in cluster_rebalance_errors_total and
// leaves its extents owed; once the source answers again the next Rebalance
// finishes the outstanding copies.
func TestClusterRebalanceFailureSurfacedAndRetried(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	want := pattern(64, 7)
	seedAll(t, cc, want)
	const dead = 1
	nodes[dead].dead.Store(true)
	old := cc.Map()
	if err := cc.MarkDead(dead); err != nil {
		t.Fatal(err)
	}
	moved := movedFrom(old, dead)
	if len(moved) == 0 {
		t.Fatal("no extents moved after a node death")
	}
	// Take the first moved extent's surviving holder, its only copy source,
	// dark so the pass fails on its first copy.
	src, _ := old.Extent(moved[0])
	if src == dead {
		_, src = old.Extent(moved[0])
	}
	nodes[src].dead.Store(true)
	if _, err := cc.Rebalance(); !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("rebalance from a dark source: %v, want a wire.ErrTimeout", err)
	}
	if n := cc.Metrics().RebalanceErrors.Load(); n != 1 {
		t.Fatalf("cluster_rebalance_errors_total %d after one failed pass, want 1", n)
	}
	if n := cc.Metrics().RemirrorsOwed.Load(); n == 0 {
		t.Fatal("failed pass left no extent owed")
	}
	nodes[src].dead.Store(false)
	if _, err := cc.Rebalance(); err != nil {
		t.Fatalf("rebalance after the source came back: %v", err)
	}
	if n := cc.Metrics().RemirrorsOwed.Load(); n != 0 || cc.Metrics().RebalanceErrors.Load() != 1 {
		t.Fatalf("retried pass left %d owed, %d errors", n, cc.Metrics().RebalanceErrors.Load())
	}
	// Every re-homed extent is dual-homed again with the data on both homes.
	m := cc.Map()
	for _, e := range moved {
		addr := uint64(e) * cc.ExtentBytes()
		pri, mir := m.Extent(e)
		for _, n := range []int{pri, mir} {
			got, err := nodes[n].cl.ReadSync(addr, 64)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("extent %d replica on node %d missing after retried rebalance: %v", e, n, err)
			}
		}
	}
}

// movedFrom lists, in extent order, the extents that node held in old.
func movedFrom(old *Map, node int) []int {
	var moved []int
	for e := 0; e < old.Extents(); e++ {
		if p, q := old.Extent(e); p == node || q == node {
			moved = append(moved, e)
		}
	}
	return moved
}

// TestClusterReadEvictionLeavesRemirrorOwed: the eviction a read failover
// makes queues its re-mirror, and nothing runs it behind the caller's back,
// however many routed ops follow; the caller's Rebalance, with no op in
// flight, does.
func TestClusterReadEvictionLeavesRemirrorOwed(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	want := pattern(64, 19)
	seedAll(t, cc, want)
	const dead = 2
	old := cc.Map()
	nodes[dead].dead.Store(true)
	if got, alive := readSeeing(t, cc, homedOn(t, cc, dead), 64, dead); alive || !bytes.Equal(got, want) {
		t.Fatalf("read failing over from node %d: equal %v, node still in the map %v", dead, bytes.Equal(got, want), alive)
	}
	moved := movedFrom(old, dead)
	if len(moved) == 0 {
		t.Fatal("no extents moved after the eviction")
	}
	// Routed reads sweep the address space; none of them fails over or
	// re-mirrors.
	for i := 0; i < 100; i++ {
		a := uint64(i%old.Extents()) * cc.ExtentBytes()
		if got, err := rmem.ReadSync(cc, a, 64); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("routed read %d at %#x: %v", i, a, err)
		}
	}
	if n := cc.Metrics().Failovers.Load(); n != 1 {
		t.Fatalf("cluster_failover_total %d after the sweep, want only the evicting read's", n)
	}
	if n := cc.Metrics().RemirrorsOwed.Load(); n != int64(len(moved)) {
		t.Fatalf("cluster_remirrors_owed %d after 100 routed reads, want the eviction's %d extents still owed", n, len(moved))
	}
	zero := make([]byte, len(want))
	for _, e := range moved {
		p, q := old.Extent(e)
		for _, n := range pair(cc.Map(), e) {
			if n == p || n == q {
				continue
			}
			got, err := nodes[n].cl.ReadSync(uint64(e)*cc.ExtentBytes(), 64)
			if err != nil || !bytes.Equal(got, zero) {
				t.Fatalf("extent %d's new holder %d holds %x..., %v before Rebalance; want zeros", e, n, got[:min(4, len(got))], err)
			}
		}
	}
	if _, err := cc.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if n := cc.Metrics().RemirrorsOwed.Load(); n != 0 {
		t.Fatalf("rebalance left %d re-mirrors owed", n)
	}
	for _, e := range moved {
		for _, n := range pair(cc.Map(), e) {
			got, err := nodes[n].cl.ReadSync(uint64(e)*cc.ExtentBytes(), 64)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("extent %d replica on node %d missing after rebalance: %v", e, n, err)
			}
		}
	}
}

// pair is extent e's (primary, mirror) under m.
func pair(m *Map, e int) [2]int {
	p, q := m.Extent(e)
	return [2]int{p, q}
}

func TestClusterRebalanceRemirrors(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	want := pattern(64, 11)
	seedAll(t, cc, want)
	const dead = 2
	nodes[dead].dead.Store(true)
	if err := cc.MarkDead(dead); err != nil {
		t.Fatal(err)
	}
	st, err := cc.Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if st.Lost != 0 {
		t.Fatalf("%d extents lost on a single-node death", st.Lost)
	}
	if st.Extents == 0 || st.Bytes == 0 {
		t.Fatalf("rebalance moved nothing: %+v", st)
	}
	// Every extent is again dual-homed with the data present on both homes.
	m := cc.Map()
	for e := 0; e < m.Extents(); e++ {
		addr := uint64(e) * cc.ExtentBytes()
		pri, mir := m.Extent(e)
		for _, n := range []int{pri, mir} {
			got, err := nodes[n].cl.ReadSync(addr, 64)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("extent %d replica on node %d missing after rebalance: %v", e, n, err)
			}
		}
	}
}

// nodeOps sums the requests routed to every node: the sub-op count.
func nodeOps(cc *Client) uint64 {
	var n uint64
	for _, c := range cc.Metrics().NodeOps {
		n += c.Load()
	}
	return n
}

// TestClusterClientContract pins the edges of Read/Write/RMW that the
// scenario-level tests never reach: what is refused inline, what is answered
// by the node, how many sub-ops and splits an op costs, and what a fan-out
// that fails half way leaves behind.
func TestClusterClientContract(t *testing.T) {
	t.Run("bad range is refused inline", func(t *testing.T) {
		cc, _ := newTestCluster(t, 4, Config{Seed: 42})
		size := cc.Size()
		fired := 0
		rcb := func([]byte, error) { fired++ }
		wcb := func(error) { fired++ }
		mcb := func(uint64, error) { fired++ }
		before := nodeOps(cc)
		for _, tc := range []struct {
			name string
			err  error
		}{
			{"read negative n", cc.Read(64, -1, rcb)},
			{"read negative n at 0", cc.Read(0, -4096, rcb)},
			{"read past size", cc.Read(size-8, 9, rcb)},
			{"read at size", cc.Read(size, 1, rcb)},
			{"read wrapping", cc.Read(^uint64(0)-3, 8, rcb)},
			{"write past size", cc.Write(size-8, make([]byte, 9), wcb)},
			{"write far past size", cc.Write(size+testExtentBytes, make([]byte, 8), wcb)},
			{"write wrapping", cc.Write(^uint64(0)-3, make([]byte, 8), wcb)},
			{"rmw past size", cc.RMW(size-4, memctl.OpFetchAdd, []uint64{1}, mcb)},
			{"rmw at size", cc.RMW(size, memctl.OpFetchAdd, []uint64{1}, mcb)},
			{"rmw wrapping", cc.RMW(^uint64(0)-3, memctl.OpFetchAdd, []uint64{1}, mcb)},
		} {
			if !errors.Is(tc.err, ErrBadExtent) {
				t.Errorf("%s: inline err = %v, want ErrBadExtent", tc.name, tc.err)
			}
		}
		if fired != 0 {
			t.Fatalf("callbacks fired %d times for ops refused inline", fired)
		}
		if n := nodeOps(cc) - before; n != 0 {
			t.Fatalf("%d sub-ops issued for ops refused inline", n)
		}
		// The last byte and the last word are in range.
		if err := rmem.WriteSync(cc, size-8, pattern(8, 1)); err != nil {
			t.Fatalf("write of the last word: %v", err)
		}
		if got, err := rmem.ReadSync(cc, size-1, 1); err != nil || got[0] != pattern(8, 1)[7] {
			t.Fatalf("read of the last byte = %v, %v", got, err)
		}
	})

	// An empty op is in range, so it is routed: one sub-op per replica, and
	// the node's out-of-range status comes back through the callback.
	t.Run("empty op is answered by the node", func(t *testing.T) {
		cc, _ := newTestCluster(t, 4, Config{Seed: 42})
		var rerr, werr error
		fired := 0
		before := nodeOps(cc)
		if err := cc.Read(100, 0, func(d []byte, err error) { fired++; rerr = err }); err != nil {
			t.Fatalf("empty read refused inline: %v", err)
		}
		if err := cc.Write(100, nil, func(err error) { fired++; werr = err }); err != nil {
			t.Fatalf("empty write refused inline: %v", err)
		}
		if fired != 2 || !errors.Is(rerr, wire.ErrRemote) || !errors.Is(werr, wire.ErrRemote) {
			t.Fatalf("fired %d, read err %v, write err %v; want 2 status errors", fired, rerr, werr)
		}
		if n := nodeOps(cc) - before; n != 3 {
			t.Fatalf("%d sub-ops, want 3 (one read, two write replicas)", n)
		}
		if n := cc.Metrics().SplitOps.Load(); n != 0 {
			t.Fatalf("empty ops counted %d splits", n)
		}
	})

	t.Run("op over four extents is one split", func(t *testing.T) {
		const eb = 4096
		cc, nodes := newTestCluster(t, 4, Config{Seed: 42, ExtentBytes: eb})
		addr := uint64(5*eb + 1000)
		want := pattern(3*eb, 17) // ends 1000 bytes into the fourth extent
		before := nodeOps(cc)
		if err := rmem.WriteSync(cc, addr, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		if n := nodeOps(cc) - before; n != 8 {
			t.Fatalf("write issued %d sub-ops, want 8 (4 segments x 2 replicas)", n)
		}
		got, err := rmem.ReadSync(cc, addr, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read back: equal=%v err=%v", bytes.Equal(got, want), err)
		}
		if n := nodeOps(cc) - before; n != 12 {
			t.Fatalf("write+read issued %d sub-ops, want 12", n)
		}
		if n := cc.Metrics().SplitOps.Load(); n != 2 {
			t.Fatalf("split ops %d, want 2 (one per op, however many extents)", n)
		}
		// Every segment sits at its own address on both of its replicas.
		m := cc.Map()
		for off := 0; off < len(want); {
			a := addr + uint64(off)
			ln := int(eb - a%eb)
			if ln > len(want)-off {
				ln = len(want) - off
			}
			e, _ := m.Locate(a)
			pri, mir := m.Extent(e)
			for _, n := range []int{pri, mir} {
				got, err := nodes[n].cl.ReadSync(a, ln)
				if err != nil || !bytes.Equal(got, want[off:off+ln]) {
					t.Fatalf("extent %d replica on node %d does not hold its segment: %v", e, n, err)
				}
			}
			off += ln
		}
	})

	// An RMW is never split: a word straddling an extent boundary goes to the
	// first extent's primary as it is, and the node refuses it.
	t.Run("unaligned RMW across a boundary is one sub-op", func(t *testing.T) {
		cc, _ := newTestCluster(t, 4, Config{Seed: 42})
		var got error
		fired := 0
		before := nodeOps(cc)
		err := cc.RMW(testExtentBytes-4, memctl.OpFetchAdd, []uint64{1}, func(v uint64, err error) { fired++; got = err })
		if err != nil {
			t.Fatalf("inline err %v, want the node's answer through the callback", err)
		}
		if fired != 1 || !errors.Is(got, wire.ErrRemote) {
			t.Fatalf("fired %d with %v, want one status error", fired, got)
		}
		if n := nodeOps(cc) - before; n != 1 {
			t.Fatalf("%d sub-ops, want 1", n)
		}
		if n := cc.Metrics().SplitOps.Load(); n != 0 {
			t.Fatalf("RMW counted as %d split ops", n)
		}
	})

	// A node whose window is full fails the fan-out half way: the error comes
	// back inline, the callback stays silent, the segments that were issued
	// land anyway (a split op is not atomic), and the next op is unaffected.
	t.Run("window exhausted mid-fan-out", func(t *testing.T) {
		// A 20 s budget keeps the filler requests pending for the whole test.
		cc, nodes := newTestClusterRetry(t, 4, Config{Seed: 42}, wire.ConnConfig{RetryTimeout: 10 * time.Second, MaxRetries: 1})
		const full = 2
		nodes[full].dead.Store(true)
		for i := 0; i < 8; i++ { // the test clients' window
			if err := nodes[full].cl.Read(0, 8, func([]byte, error) {}); err != nil {
				t.Fatalf("filler %d: %v", i, err)
			}
		}
		nodes[full].dead.Store(false)
		if err := nodes[full].cl.Read(0, 8, func([]byte, error) {}); !errors.Is(err, rmem.ErrTooManyOut) {
			t.Fatalf("node %d window not full: %v", full, err)
		}
		// Adjacent extents: the first homed away from the full node, the
		// second with the full node as its primary.
		m := cc.Map()
		first := -1
		for e := 0; e+1 < m.Extents(); e++ {
			p0, m0 := m.Extent(e)
			if p1, _ := m.Extent(e + 1); p0 != full && m0 != full && p1 == full {
				first = e
				break
			}
		}
		if first < 0 {
			t.Fatal("no extent pair with the wanted homes under this seed")
		}
		addr := uint64(first+1)*testExtentBytes - 100
		want := pattern(200, 23)
		fired := 0
		if err := cc.Write(addr, want, func(error) { fired++ }); !errors.Is(err, rmem.ErrTooManyOut) {
			t.Fatalf("split write inline err = %v, want rmem.ErrTooManyOut", err)
		}
		if err := cc.Read(addr, len(want), func([]byte, error) { fired++ }); !errors.Is(err, rmem.ErrTooManyOut) {
			t.Fatalf("split read inline err = %v, want rmem.ErrTooManyOut", err)
		}
		if fired != 0 {
			t.Fatalf("callback fired %d times for ops that failed inline", fired)
		}
		pri, mir := m.Extent(first)
		for _, n := range []int{pri, mir} {
			got, err := nodes[n].cl.ReadSync(addr, 100)
			if err != nil || !bytes.Equal(got, want[:100]) {
				t.Fatalf("segment issued before the failure did not land on node %d: %v", n, err)
			}
		}
		// The records those ops used go round again: ops that avoid the full
		// node complete, exactly once each, with the right bytes.
		var got []byte
		var rerr, werr error
		next := pattern(100, 29)
		if err := cc.Write(addr, next, func(err error) { fired++; werr = err }); err != nil {
			t.Fatalf("write after the failed fan-out: %v", err)
		}
		if err := cc.Read(addr, 100, func(d []byte, err error) { fired++; got, rerr = append([]byte(nil), d...), err }); err != nil {
			t.Fatalf("read after the failed fan-out: %v", err)
		}
		if fired != 2 || werr != nil || rerr != nil || !bytes.Equal(got, next) {
			t.Fatalf("after the failed fan-out: fired %d, write %v, read %v, equal %v", fired, werr, rerr, bytes.Equal(got, next))
		}
	})
}

// TestClusterFlappedReplicaIsEvicted: a replica that was only unreachable
// for a while misses the writes its partner acked alone. The miss evicts it
// before the write's callback fires, so once its link is back no read
// reaches its old bytes. Each case darkens one replica of an extent for one
// write or RMW; the op succeeds on the other replica.
func TestClusterFlappedReplicaIsEvicted(t *testing.T) {
	for _, tc := range []struct {
		name    string
		darkPri bool // else the mirror is dark
		rmw     bool
	}{
		{"write, primary dark", true, false},
		{"write, mirror dark", false, false},
		{"RMW, primary dark", true, true},
		{"RMW write-through, mirror dark", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
			addr := uint64(11 * testExtentBytes)
			e, _ := cc.Map().Locate(addr)
			pri, mir := cc.Map().Extent(e)
			dark := mir
			if tc.darkPri {
				dark = pri
			}
			stale, fresh := pattern(64, 31), pattern(64, 37)
			if err := rmem.WriteSync(cc, addr, stale); err != nil {
				t.Fatalf("first write: %v", err)
			}
			nodes[dark].dead.Store(true)
			var aliveAtAck bool
			done := make(chan error, 1)
			ack := func(err error) {
				aliveAtAck = cc.Map().Alive(dark)
				done <- err
			}
			var err error
			if tc.rmw {
				// Adding fresh - stale to the first word makes it fresh's.
				add := binary.LittleEndian.Uint64(fresh) - binary.LittleEndian.Uint64(stale)
				err = cc.RMW(addr, memctl.OpFetchAdd, []uint64{add}, func(_ uint64, err error) { ack(err) })
				fresh = append(fresh[:8:8], stale[8:]...)
			} else {
				err = cc.Write(addr, fresh, ack)
			}
			if err == nil {
				err = <-done
			}
			if err != nil {
				t.Fatalf("op with node %d dark: %v", dark, err)
			}
			if aliveAtAck {
				t.Fatalf("node %d, which missed the op, was still in the map when the op completed", dark)
			}
			mt := cc.Metrics()
			if mt.Failovers.Load() != 1 || mt.Evictions.Load() != 1 || cc.Epoch() != 1 {
				t.Fatalf("failovers %d, evictions %d, epoch %d: want one of each, the dark node evicted",
					mt.Failovers.Load(), mt.Evictions.Load(), cc.Epoch())
			}
			nodes[dark].dead.Store(false)
			got, err := rmem.ReadSync(cc, addr, 64)
			if err != nil {
				t.Fatalf("read after the link came back: %v", err)
			}
			if !bytes.Equal(got, fresh) {
				t.Fatalf("read %x..., want the acked bytes %x... (the flapped node's were %x...)", got[:4], fresh[:4], stale[:4])
			}
		})
	}
}

// TestClusterFlapThenDeathKeepsAckedWrite: a flap and one later death must
// not lose an acked write. Write A; darken the primary and write B, which
// only the mirror acks; bring the primary back; then the mirror, the last
// holder of B, leaves the map. The flapped primary was evicted by the write
// it missed, so write W is refused rather than acked by the two uncopied
// holders, the rebalance copies B from the mirror that left, and the read
// returns B.
func TestClusterFlapThenDeathKeepsAckedWrite(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	addr := uint64(11 * testExtentBytes)
	e, _ := cc.Map().Locate(addr)
	pri, mir := cc.Map().Extent(e)
	a, b, w := pattern(64, 31), pattern(64, 37), pattern(64, 43)
	if err := rmem.WriteSync(cc, addr, a); err != nil {
		t.Fatalf("write A: %v", err)
	}
	nodes[pri].dead.Store(true)
	if err := rmem.WriteSync(cc, addr, b); err != nil {
		t.Fatalf("write B with the primary dark: %v", err)
	}
	nodes[pri].dead.Store(false)
	if err := cc.MarkDead(mir); err != nil {
		t.Fatal(err)
	}
	if err := rmem.WriteSync(cc, addr, w); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("write W with B's last holder out of the map: %v, want ErrNoReplica", err)
	}
	if st, err := cc.Rebalance(); err != nil || st.Lost != 0 {
		t.Fatalf("rebalance after the mirror's death: %+v, %v", st, err)
	}
	got, err := rmem.ReadSync(cc, addr, 64)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, b) {
		t.Fatalf("read %x..., want B %x... (A was %x...)", got[:4], b[:4], a[:4])
	}
}

// TestClusterRejoinBeforeRebalanceReadsAckedWrite: a node rejoined before
// its copy-in must not serve. Write A; darken the primary and write B, which
// evicts it; bring it back and Rejoin it. Map.Join gives the node its old
// roles, so it is the extent's primary again while it still holds A. Reads
// and RMWs routed before Rebalance go to the mirror, which holds B; writes
// reach both holders; after Rebalance both hold the last write.
func TestClusterRejoinBeforeRebalanceReadsAckedWrite(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	addr := uint64(11 * testExtentBytes)
	e, _ := cc.Map().Locate(addr)
	pri, mir := cc.Map().Extent(e)
	a, b := pattern(64, 31), pattern(64, 37)
	if err := rmem.WriteSync(cc, addr, a); err != nil {
		t.Fatalf("write A: %v", err)
	}
	nodes[pri].dead.Store(true)
	if err := rmem.WriteSync(cc, addr, b); err != nil {
		t.Fatalf("write B with the primary dark: %v", err)
	}
	nodes[pri].dead.Store(false)
	if err := cc.Rejoin(pri); err != nil {
		t.Fatal(err)
	}
	if p, q := cc.Map().Extent(e); p != pri || q != mir {
		t.Fatalf("extent %d homed on %d/%d after the rejoin, want its old %d/%d", e, p, q, pri, mir)
	}
	got, err := rmem.ReadSync(cc, addr, 64)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("read before Rebalance: %x..., %v; want B %x... (A was %x...)", got[:min(4, len(got))], err, b[:4], a[:4])
	}
	word := binary.LittleEndian.Uint64(b)
	if v, err := rmem.RMWSync(cc, addr, memctl.OpFetchAdd, 1); err != nil || v != word {
		t.Fatalf("fetch-add before Rebalance = %#x, %v; want B's word %#x", v, err, word)
	}
	binary.LittleEndian.PutUint64(b, word+1)
	if _, err := cc.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	for _, n := range []int{pri, mir} {
		if got, err := nodes[n].cl.ReadSync(addr, 64); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("node %d after Rebalance: %x..., %v; want %x...", n, got[:min(4, len(got))], err, b[:4])
		}
	}
}

// TestClusterFailoverIntoUncopiedHolderFails: a failover must not reach a
// holder that awaits its copy. Write A; darken the primary and write B,
// which evicts it: the old mirror is promoted and a new, uncopied mirror
// joins the extent. Darken the promoted primary too. Its only other holder
// holds zeros, so reads and RMWs fail instead of returning them. Write C
// reaches only the uncopied holder, whose ack alone acks nothing: the write
// fails and evicts no one, since Rebalance would copy B over C. Once the
// promoted primary answers again and Rebalance has copied B in, both
// holders hold B.
func TestClusterFailoverIntoUncopiedHolderFails(t *testing.T) {
	cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
	addr := uint64(11 * testExtentBytes)
	e, _ := cc.Map().Locate(addr)
	pri, mir := cc.Map().Extent(e)
	a, b, c := pattern(64, 31), pattern(64, 37), pattern(64, 47)
	if err := rmem.WriteSync(cc, addr, a); err != nil {
		t.Fatalf("write A: %v", err)
	}
	nodes[pri].dead.Store(true)
	if err := rmem.WriteSync(cc, addr, b); err != nil {
		t.Fatalf("write B with the primary dark: %v", err)
	}
	p, q := cc.Map().Extent(e)
	if p != mir || q == pri {
		t.Fatalf("extent %d homed on %d/%d after evicting %d, want the old mirror %d promoted", e, p, q, pri, mir)
	}
	nodes[mir].dead.Store(true)
	if got, err := rmem.ReadSync(cc, addr, 64); err == nil {
		t.Fatalf("read with only the uncopied holder %d answering returned %x..., nil", q, got[:min(4, len(got))])
	}
	if v, err := rmem.RMWSync(cc, addr, memctl.OpFetchAdd, 0); err == nil {
		t.Fatalf("fetch-add with only the uncopied holder %d answering returned %#x, nil", q, v)
	}
	if err := rmem.WriteSync(cc, addr, c); !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("write C acked only by the uncopied holder %d: %v, want a wire.ErrTimeout", q, err)
	}
	if !cc.Map().Alive(mir) {
		t.Fatalf("node %d, B's only in-sync holder, was evicted by a write no in-sync node acked", mir)
	}
	nodes[mir].dead.Store(false)
	if st, err := cc.Rebalance(); err != nil || st.Lost != 0 {
		t.Fatalf("rebalance: %+v, %v", st, err)
	}
	for _, n := range []int{p, q} {
		if got, err := nodes[n].cl.ReadSync(addr, 64); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("node %d after Rebalance: %x..., %v; want B %x...", n, got[:min(4, len(got))], err, b[:4])
		}
	}
}

// TestClusterNoInSyncHolderFailsWithoutIssue: write A; both holders of the
// extent then leave the map while they still answer, so both new holders
// await their copy and no node in the map holds A. A read and a write both
// fail with ErrNoReplica at once: a write the uncopied holders acked would
// be overwritten by Rebalance's copy. Rebalance copies A from the holder
// that left, and the extent serves again.
func TestClusterNoInSyncHolderFailsWithoutIssue(t *testing.T) {
	cc, _ := newTestCluster(t, 4, Config{Seed: 42})
	addr := uint64(11 * testExtentBytes)
	e, _ := cc.Map().Locate(addr)
	pri, mir := cc.Map().Extent(e)
	a, b := pattern(64, 31), pattern(64, 41)
	if err := rmem.WriteSync(cc, addr, a); err != nil {
		t.Fatalf("write A: %v", err)
	}
	for _, n := range []int{pri, mir} {
		if err := cc.MarkDead(n); err != nil {
			t.Fatal(err)
		}
	}
	p, q := cc.Map().Extent(e)
	before := nodeOps(cc)
	if _, err := rmem.ReadSync(cc, addr, 64); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("read with both holders %d/%d uncopied: err %v, want ErrNoReplica", p, q, err)
	}
	if err := rmem.WriteSync(cc, addr, b); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("write with both holders %d/%d uncopied: err %v, want ErrNoReplica", p, q, err)
	}
	if n := nodeOps(cc) - before; n != 0 {
		t.Fatalf("the refused ops issued %d node requests", n)
	}
	if st, err := cc.Rebalance(); err != nil || st.Lost != 0 {
		t.Fatalf("rebalance: %+v, %v", st, err)
	}
	if got, err := rmem.ReadSync(cc, addr, 64); err != nil || !bytes.Equal(got, a) {
		t.Fatalf("read after Rebalance: %x..., %v; want A %x...", got[:min(4, len(got))], err, a[:4])
	}
	if err := rmem.WriteSync(cc, addr, b); err != nil {
		t.Fatalf("write after Rebalance: %v", err)
	}
}

// TestClusterOwedRemirrorAfterDeath: a node that an owed re-mirror names
// dies, dark, before the re-mirror runs. The primary missed write B and
// was evicted; its re-mirror copies B from the mirror to a new holder.
// Whether the mirror (B's copy source) or the new holder dies, Rebalance
// completes rather than time out on the dead node, and counts as lost the
// extents that only it and the evicted primary held. When the new holder
// dies, B survives on the mirror. Either way nothing stays owed to block a
// later Rebalance.
func TestClusterOwedRemirrorAfterDeath(t *testing.T) {
	for _, dies := range []string{"source", "new holder"} {
		t.Run(dies, func(t *testing.T) {
			cc, nodes := newTestCluster(t, 4, Config{Seed: 42})
			addr := uint64(11 * testExtentBytes)
			m0 := cc.Map()
			e, _ := m0.Locate(addr)
			pri, mir := m0.Extent(e)
			b := pattern(64, 37)
			nodes[pri].dead.Store(true)
			if err := rmem.WriteSync(cc, addr, b); err != nil {
				t.Fatalf("write B with the primary dark: %v", err)
			}
			nodes[pri].dead.Store(false)
			victim := mir
			if dies == "new holder" {
				// The holder the eviction gave extent e beside the mirror.
				if p, q := cc.Map().Extent(e); p != mir {
					victim = p
				} else {
					victim = q
				}
			}
			// Lost: every extent the evicted primary shared with the
			// victim, which was its only up-to-date copy.
			wantLost := 0
			for x := 0; x < m0.Extents(); x++ {
				if p, q := m0.Extent(x); (p == pri && q == victim) || (p == victim && q == pri) {
					wantLost++
				}
			}
			nodes[victim].dead.Store(true)
			if err := cc.MarkDead(victim); err != nil {
				t.Fatal(err)
			}
			st, err := cc.Rebalance()
			if err != nil || st.Lost != wantLost {
				t.Fatalf("rebalance after node %d died: %+v, %v; want lost %d", victim, st, err, wantLost)
			}
			if owed := cc.Metrics().RemirrorsOwed.Load(); owed != 0 {
				t.Fatalf("%d extents still owed", owed)
			}
			if dies == "source" {
				return
			}
			got, err := rmem.ReadSync(cc, addr, 64)
			if err != nil || !bytes.Equal(got, b) {
				t.Fatalf("read %x..., %v; want B %x...", got[:min(4, len(got))], err, b[:4])
			}
		})
	}
}

// TestClusterMissedWriteWithTwoAlive: with two nodes alive a replica that
// missed a write cannot be evicted, so the write fails rather than report
// success from the one replica that has it.
func TestClusterMissedWriteWithTwoAlive(t *testing.T) {
	cc, nodes := newTestCluster(t, 2, Config{Seed: 42})
	pri, _ := cc.Map().Extent(0)
	nodes[pri].dead.Store(true)
	if err := rmem.WriteSync(cc, 0, pattern(64, 5)); !errors.Is(err, ErrTooFewNodes) {
		t.Fatalf("write missed by node %d of two: err %v, want ErrTooFewNodes", pri, err)
	}
	if !cc.Map().Alive(pri) || cc.Epoch() != 0 {
		t.Fatalf("node %d evicted from a two-node map (epoch %d)", pri, cc.Epoch())
	}
}

// TestClusterTwoAliveKeepsMissedNode: with two nodes alive a node that
// misses reads cannot be evicted, so it stays in the map and the reads fail
// over and succeed. Once a third node is back in the map, the next read
// whose partner answers evicts it, and Rebalance then brings every extent
// back on two in-sync holders.
func TestClusterTwoAliveKeepsMissedNode(t *testing.T) {
	cc, nodes := newTestCluster(t, 3, Config{Seed: 42})
	const a, b = 0, 1
	want := pattern(64, 47)
	seedAll(t, cc, want)
	nodes[a].dead.Store(true)
	if _, alive := readSeeing(t, cc, homedOn(t, cc, a), 64, a); alive {
		t.Fatalf("node %d not evicted while three nodes were alive", a)
	}
	if _, err := cc.Rebalance(); err != nil {
		t.Fatalf("rebalance after node %d left: %v", a, err)
	}
	nodes[b].dead.Store(true)
	addr := homedOn(t, cc, b)
	for i := 0; i < 3; i++ {
		if got, alive := readSeeing(t, cc, addr, 64, b); !alive || !bytes.Equal(got, want) {
			t.Fatalf("read %d with node %d dark and two alive: equal %v, node in the map %v", i, b, bytes.Equal(got, want), alive)
		}
	}
	if cc.Metrics().Evictions.Load() != 1 || cc.Epoch() != 1 {
		t.Fatalf("evictions %d, epoch %d with two nodes alive; want node %d's eviction only",
			cc.Metrics().Evictions.Load(), cc.Epoch(), a)
	}
	nodes[a].dead.Store(false)
	if err := cc.Rejoin(a); err != nil {
		t.Fatal(err)
	}
	// Node b's extents that node a did not take back still fail over to
	// the third node, whose answer evicts b.
	m := cc.Map()
	addr = 0
	for e := 0; e < m.Extents(); e++ {
		if pri, mir := m.Extent(e); pri == b && mir != a {
			addr = uint64(e) * cc.ExtentBytes()
			break
		}
	}
	if got, alive := readSeeing(t, cc, addr, 64, b); alive || !bytes.Equal(got, want) {
		t.Fatalf("read with node %d back: equal %v, node %d still in the map %v", a, bytes.Equal(got, want), b, alive)
	}
	if n := cc.Metrics().Evictions.Load(); n != 2 {
		t.Fatalf("cluster_evictions_total %d, want 2", n)
	}
	if st, err := cc.Rebalance(); err != nil || st.Lost != 0 {
		t.Fatalf("rebalance after node %d left: %+v, %v", b, st, err)
	}
	m = cc.Map()
	for e := 0; e < m.Extents(); e++ {
		pri, mir := m.Extent(e)
		for _, n := range []int{pri, mir} {
			if got, err := nodes[n].cl.ReadSync(uint64(e)*cc.ExtentBytes(), 64); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("extent %d on node %d after the rebalance: %v", e, n, err)
			}
		}
	}
}

// TestClusterReadCallbackKeepsData: the join record is lent to a read
// callback until it returns, so an op issued from inside the callback gets
// another record and the callback's bytes stay put.
func TestClusterReadCallbackKeepsData(t *testing.T) {
	cc, _ := newTestCluster(t, 4, Config{Seed: 42})
	outer, inner := pattern(256, 41), pattern(256, 43)
	if err := rmem.WriteSync(cc, 0, outer); err != nil {
		t.Fatal(err)
	}
	if err := rmem.WriteSync(cc, testExtentBytes, inner); err != nil {
		t.Fatal(err)
	}
	nested := false
	err := cc.Read(0, len(outer), func(d []byte, err error) {
		if err != nil {
			t.Errorf("outer read: %v", err)
			return
		}
		if err := cc.Read(testExtentBytes, len(inner), func(d2 []byte, err error) {
			nested = err == nil && bytes.Equal(d2, inner)
		}); err != nil {
			t.Errorf("nested read: %v", err)
		}
		if !bytes.Equal(d, outer) {
			t.Error("a nested read rewrote the bytes its enclosing callback was handed")
		}
	})
	if err != nil || !nested {
		t.Fatalf("outer read %v, nested read completed intact %v", err, nested)
	}
}

// TestClusterJoinThenDeathKeepsAckedWrite: a rejoin displaces a holder that
// still has every acked write, and the rejoined node has none until its
// copy. Node k leaves and is re-mirrored, then rejoins; an extent it takes
// back gets write X; then the extent's other target leaves and Rebalance
// runs. The displaced holder took X in the uncopied node's place, so the
// read returns X, not the bytes from before it.
func TestClusterJoinThenDeathKeepsAckedWrite(t *testing.T) {
	for _, nodesN := range []int{4, 3} {
		t.Run(fmt.Sprintf("%d nodes", nodesN), func(t *testing.T) {
			cc, _ := newTestCluster(t, nodesN, Config{Seed: 42})
			a, x := pattern(64, 51), pattern(64, 53)
			seedAll(t, cc, a)
			k := nodesN - 1
			if err := cc.MarkDead(k); err != nil {
				t.Fatal(err)
			}
			if _, err := cc.Rebalance(); err != nil {
				t.Fatalf("rebalance after node %d left: %v", k, err)
			}
			before := cc.Map()
			if err := cc.Rejoin(k); err != nil {
				t.Fatal(err)
			}
			e, other := -1, -1
			for i := 0; i < before.Extents() && e < 0; i++ {
				p, q := cc.Map().Extent(i)
				bp, bq := before.Extent(i)
				if (p == k || q == k) && (p == bp || p == bq || q == bp || q == bq) {
					e, other = i, p+q-k
				}
			}
			if e < 0 {
				t.Fatalf("node %d took back no extent that kept a holder", k)
			}
			addr := uint64(e) * cc.ExtentBytes()
			if err := rmem.WriteSync(cc, addr, x); err != nil {
				t.Fatalf("write X to extent %d: %v", e, err)
			}
			if err := cc.MarkDead(other); err != nil {
				t.Fatal(err)
			}
			if st, err := cc.Rebalance(); err != nil || st.Lost != 0 {
				t.Fatalf("rebalance after node %d left: %+v, %v", other, st, err)
			}
			if got, err := rmem.ReadSync(cc, addr, 64); err != nil || !bytes.Equal(got, x) {
				t.Fatalf("extent %d read %x..., %v; want X %x... (before it: %x...)", e, got[:min(4, len(got))], err, x[:4], a[:4])
			}
		})
	}
}

// TestClusterRebalanceFallsBackToOtherSource: 3 nodes. Node 0 is evicted by
// a read failover and re-mirrored; node 1 goes dark; node 0 rejoins. Its
// copy-in falls back from dark node 1 to node 2, which holds every extent,
// so the pass succeeds and every extent reads back.
func TestClusterRebalanceFallsBackToOtherSource(t *testing.T) {
	cc, nodes := newTestCluster(t, 3, Config{Seed: 42})
	want := pattern(64, 59)
	seedAll(t, cc, want)
	nodes[0].dead.Store(true)
	if _, alive := readSeeing(t, cc, homedOn(t, cc, 0), 64, 0); alive {
		t.Fatal("node 0 not evicted by the read failover")
	}
	if _, err := cc.Rebalance(); err != nil {
		t.Fatalf("rebalance after node 0 left: %v", err)
	}
	nodes[0].dead.Store(false)
	nodes[1].dead.Store(true)
	if err := cc.Rejoin(0); err != nil {
		t.Fatal(err)
	}
	if st, err := cc.Rebalance(); err != nil || st.Lost != 0 {
		t.Fatalf("rebalance with node 1 dark: %+v, %v", st, err)
	}
	failed := 0
	for e := 0; e < cc.Map().Extents(); e++ {
		if got, err := rmem.ReadSync(cc, uint64(e)*cc.ExtentBytes(), 64); err != nil || !bytes.Equal(got, want) {
			failed++
		}
	}
	if failed != 0 {
		t.Fatalf("%d of %d extents failed their reads, though node 2 holds them all", failed, cc.Map().Extents())
	}
}
