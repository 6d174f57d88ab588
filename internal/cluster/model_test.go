package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/memctl"
	"repro/internal/rmem"
)

// The model's cluster: 16 extents of 512 B over 4 nodes, so a few hundred
// ops hit every extent and every replica pair many times over. The last
// extent holds counters that only fetch-adds touch.
const (
	modelNodes    = 4
	modelExtent   = 512
	modelSize     = 16 * modelExtent
	modelCounters = modelSize - modelExtent
)

// clusterModel drives a cluster.Client one op at a time from a byte script
// and checks every outcome against a flat reference slab (one
// memctl.Controller, the same word semantics the nodes run): a read returns
// the slab's bytes, an RMW the slab's result, nothing fails while at most
// one node is down. The script kills one node, the driver evicts it and
// re-mirrors a few ops later, and the script may let it rejoin. While that
// rejoin's copy-in is pending it may kill a second node, whose eviction's
// re-mirror runs the copy-in too; one node is down at a time. It may also
// flap a node while every node is in the map: dark for a few ops, never
// evicted by the model (the client evicts it if it misses a write), then back
// and rejoined. A rejoin's copy-in may wait a few ops, which route while
// the rejoined node is in the map with stale bytes. At the end both replicas
// of every extent hold the slab's bytes and every counter holds the sum of
// its acked fetch-adds.
type clusterModel struct {
	t     testing.TB
	cc    *Client
	nodes []*testNode
	ref   *memctl.Controller
	sums  map[uint64]uint64 // counter word -> acked fetch-add total

	down    int // the killed node, -1 before the kill
	kills   int // nodes killed
	evictIn int // ops left until the driver evicts it; -1: not pending
	healed  bool
	rejoin  bool
	ops     [8]int // ops run, by script opcode

	flapped  int // the node dark for a flap, -1 when none
	flapFor  int // ops left until it is back
	flapSync int // ops its copy-in waits once it is back
	flaps    int // flaps ended
	flapOuts int // flapped nodes the client evicted

	syncIn  int  // ops left until the owed copy-in runs; -1: none pending
	joining bool // the pending copy-in is the killed node's rejoin
	unsyncd int  // ops routed while a copy-in was pending
}

func newClusterModel(t testing.TB) *clusterModel {
	cfg := memctl.DefaultConfig()
	cfg.Size = modelSize
	m := &clusterModel{t: t, ref: memctl.New(cfg), sums: map[uint64]uint64{}, down: -1, evictIn: -1, flapped: -1, syncIn: -1}
	m.cc, m.nodes = newTestCluster(t, modelNodes, Config{Seed: 42, Size: modelSize, ExtentBytes: modelExtent})
	return m
}

// fill derives n payload bytes from the step's script bytes. Unlike pattern
// it does not repeat every 256 bytes, so a segment landing one or two
// half-extents off is seen.
func fill(n int, a, b byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = a + byte(i)*b + byte(i>>8)
	}
	return p
}

func (m *clusterModel) read(addr uint64, n int) {
	m.t.Helper()
	got, err := rmem.ReadSync(m.cc, addr, n)
	want, _, _ := m.ref.Read(addr, n)
	if err != nil || !bytes.Equal(got, want) {
		m.t.Fatalf("read [%d,+%d): err %v, equal to the model %v", addr, n, err, bytes.Equal(got, want))
	}
}

func (m *clusterModel) write(addr uint64, data []byte) {
	m.t.Helper()
	if err := rmem.WriteSync(m.cc, addr, data); err != nil {
		m.t.Fatalf("write [%d,+%d): %v", addr, len(data), err)
	}
	m.ref.Write(addr, data)
}

func (m *clusterModel) rmw(addr uint64, op memctl.RMWOp, args ...uint64) {
	m.t.Helper()
	got, err := rmem.RMWSync(m.cc, addr, op, args...)
	want, _, _ := m.ref.RMW(addr, op, args...)
	if err != nil || got != want {
		m.t.Fatalf("%v %v at %d = %d, %v; the model says %d", op, args, addr, got, err, want)
	}
}

// word reads the model's 64-bit word at addr.
func (m *clusterModel) word(addr uint64) uint64 {
	b, _, _ := m.ref.Read(addr, 8)
	return binary.LittleEndian.Uint64(b)
}

// sync runs every owed re-mirror.
func (m *clusterModel) sync() {
	m.t.Helper()
	if st, err := m.cc.Rebalance(); err != nil || st.Lost != 0 {
		m.t.Fatalf("re-mirror: %+v, %v", st, err)
	}
	m.syncIn, m.joining = -1, false
}

// syncAfter runs the owed re-mirrors now (ops 0) or after ops more ops.
func (m *clusterModel) syncAfter(ops int) {
	m.t.Helper()
	if ops == 0 {
		m.sync()
		return
	}
	m.syncIn = ops
}

// evict declares the killed node dead and re-mirrors its extents.
func (m *clusterModel) evict() {
	m.t.Helper()
	if err := m.cc.MarkDead(m.down); err != nil {
		m.t.Fatalf("evict node %d: %v", m.down, err)
	}
	m.sync()
	m.evictIn, m.healed = -1, true
}

// member is the script's membership step. With c odd it flaps node a for
// 1..8 ops, when every node is in the map, none is flapping and no copy-in
// is pending; the flapped node's copy-in waits (c>>1)%8 ops once it is back.
// Otherwise the first kills a node (evicted 0..7 ops later), when none is
// flapping and no copy-in is pending, and the next one after the eviction
// lets it rejoin, with its copy-in b%8 ops later. One more, while that
// copy-in is pending, kills node a if it is another node (evicted 0..7 ops
// later); the eviction's re-mirror takes over the copy-in.
func (m *clusterModel) member(a, b, c byte) {
	m.t.Helper()
	switch {
	case c%2 == 1:
		if m.flapped < 0 && m.syncIn < 0 && (m.down < 0 || m.rejoin && m.healed) {
			m.flapped, m.flapFor, m.flapSync = int(a)%modelNodes, 1+int(b)%8, int(c>>1)%8
			m.nodes[m.flapped].dead.Store(true)
		}
	case m.joining && m.kills == 1 && int(a)%modelNodes != m.down:
		m.kills++
		m.down, m.evictIn, m.healed, m.syncIn, m.joining = int(a)%modelNodes, int(b)%8, false, -1, false
		m.nodes[m.down].dead.Store(true)
	case m.flapped >= 0 || m.syncIn >= 0: // no kill while a node is dark or unsynced
	case m.down < 0:
		m.kills++
		m.down, m.evictIn = int(a)%modelNodes, int(b)%8
		m.nodes[m.down].dead.Store(true)
	case m.healed && !m.rejoin:
		m.rejoin = true
		m.nodes[m.down].dead.Store(false)
		if err := m.cc.Rejoin(m.down); err != nil {
			m.t.Fatalf("rejoin node %d: %v", m.down, err)
		}
		m.syncAfter(int(b) % 8)
		m.joining = m.syncIn >= 0
	}
}

// back ends a flap: the node's link returns, and the model rejoins it and
// copies in what it missed.
func (m *clusterModel) back() {
	m.t.Helper()
	n := m.flapped
	m.nodes[n].dead.Store(false)
	if !m.cc.Map().Alive(n) {
		m.flapOuts++
	}
	if err := m.cc.Rejoin(n); err != nil {
		m.t.Fatalf("rejoin flapped node %d: %v", n, err)
	}
	m.flapped = -1
	m.flaps++
	m.syncAfter(m.flapSync)
}

// run interprets script four bytes at a time: opcode, then three operands.
func (m *clusterModel) run(script []byte) {
	m.t.Helper()
	for ; len(script) >= 4; script = script[4:] {
		if m.evictIn == 0 {
			m.evict()
		} else if m.evictIn > 0 {
			m.evictIn--
		}
		if m.flapFor == 0 && m.flapped >= 0 {
			m.back()
		} else if m.flapped >= 0 {
			m.flapFor--
		}
		if m.syncIn == 0 {
			m.sync()
		} else if m.syncIn > 0 {
			m.syncIn--
			m.unsyncd++
		}
		op, a, b, c := script[0]%8, script[1], script[2], script[3]
		m.ops[op]++
		at := uint64(a)<<8 | uint64(b)
		switch op {
		case 0, 1: // read anywhere, counters included
			addr := at % modelSize
			m.read(addr, min(1+int(c), modelSize-int(addr)))
		case 2, 3: // write below the counters
			addr := at % modelCounters
			m.write(addr, fill(min(1+int(c), modelCounters-int(addr)), a, b))
		case 4: // any of the eight atomics on a word below the counters
			addr := at % (modelCounters / 8) * 8
			rop := memctl.OpCAS + memctl.RMWOp(c%8)
			arg := uint64(c)<<56 ^ uint64(b)<<20 ^ uint64(a) // both signs for min/max
			switch {
			case rop != memctl.OpCAS:
				m.rmw(addr, rop, arg)
			case c&8 != 0: // a CAS that hits
				m.rmw(addr, rop, m.word(addr), arg)
			default:
				m.rmw(addr, rop, arg, arg+1)
			}
		case 5: // fetch-add on a counter
			addr := modelCounters + uint64(a)%(modelExtent/8)*8
			m.rmw(addr, memctl.OpFetchAdd, uint64(c))
			m.sums[addr] += uint64(c)
		case 6: // an op that crosses an extent boundary, over up to four extents
			edge := (1 + uint64(a)%(modelCounters/modelExtent-1)) * modelExtent
			addr := edge - 1 - uint64(b)%64
			n := min(int(edge-addr)+1+6*int(c), modelCounters-int(addr))
			if b&64 != 0 {
				m.write(addr, fill(n, c, a))
			} else {
				m.read(addr, n)
			}
		case 7:
			m.member(a, b, c)
		}
	}
}

// check is the end-of-script sweep.
func (m *clusterModel) check() {
	m.t.Helper()
	if m.flapped >= 0 {
		m.back()
	}
	if m.down >= 0 && !m.healed {
		m.evict()
	}
	if m.syncIn >= 0 {
		m.sync()
	}
	if m.down < 0 && m.flaps == 0 {
		if n := m.cc.Metrics().Failovers.Load(); n != 0 {
			m.t.Fatalf("%d failovers with every node up", n)
		}
	}
	cur := m.cc.Map()
	for e := 0; e < cur.Extents(); e++ {
		addr := uint64(e) * modelExtent
		want, _, _ := m.ref.Read(addr, modelExtent)
		pri, mir := cur.Extent(e)
		for _, n := range []int{pri, mir} {
			if m.nodes[n].dead.Load() {
				m.t.Fatalf("extent %d homed on dead node %d", e, n)
			}
			got, err := m.nodes[n].cl.ReadSync(addr, modelExtent)
			if err != nil || !bytes.Equal(got, want) {
				m.t.Fatalf("extent %d on node %d differs from the model (err %v)", e, n, err)
			}
		}
	}
	for addr, sum := range m.sums {
		if got := m.word(addr); got != sum {
			m.t.Fatalf("model counter %d = %d, acked adds sum to %d", addr, got, sum)
		}
		if got, err := rmem.RMWSync(m.cc, addr, memctl.OpFetchAdd, 0); err != nil || got != sum {
			m.t.Fatalf("counter %d = %d, %v; acked adds sum to %d", addr, got, err, sum)
		}
	}
}

// modelScript is a seeded script of steps ops with a flap a sixth of the way
// in, the kill at a third and the rejoin at two thirds, whose copy-in waits
// at least four ops; no other membership steps.
func modelScript(seed uint64, steps int) []byte {
	script := make([]byte, 4*steps)
	x := seed * 0x9e3779b97f4a7c15
	for i := range script {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		script[i] = byte(x >> 32)
		if i%4 == 0 && script[i]%8 == 7 {
			script[i]--
		}
	}
	flap, kill, rejoin := steps/6+int(x>>16%16), steps/3+int(x%16), 2*steps/3+int(x>>8%16)
	script[4*flap], script[4*kill], script[4*rejoin] = 7, 7, 7
	script[4*flap+3] |= 1
	script[4*kill+3] &^= 1
	script[4*rejoin+3] &^= 1
	script[4*kill+2] |= 4   // at least four ops with the node down and not yet evicted
	script[4*rejoin+2] |= 4 // at least four ops routed before the rejoin's copy-in
	return script
}

// TestClusterModel runs seeded scripts through the model and makes sure
// each one reached every op kind, the failover window, the rejoin and ops
// routed before its copy-in, and that some flapped node was evicted by a
// write it missed.
func TestClusterModel(t *testing.T) {
	flapOuts := 0
	for seed := uint64(1); seed <= 6; seed++ {
		m := newClusterModel(t)
		m.run(modelScript(seed, 400))
		m.check()
		for op, n := range m.ops {
			if n == 0 {
				t.Fatalf("seed %d: script never ran opcode %d", seed, op)
			}
		}
		if !m.healed || !m.rejoin || m.flaps != 1 || m.unsyncd < 4 {
			t.Fatalf("seed %d: evicted %v, rejoined %v, flaps %d, ops before a copy-in %d",
				seed, m.healed, m.rejoin, m.flaps, m.unsyncd)
		}
		mt := m.cc.Metrics()
		if mt.Failovers.Load() == 0 || mt.SplitOps.Load() == 0 || mt.Evictions.Load() != uint64(1+m.flapOuts) {
			t.Fatalf("seed %d: failovers %d, splits %d, evictions %d (flapped nodes evicted %d)",
				seed, mt.Failovers.Load(), mt.SplitOps.Load(), mt.Evictions.Load(), m.flapOuts)
		}
		flapOuts += m.flapOuts
	}
	if flapOuts == 0 {
		t.Fatal("no seed's flapped node missed a write")
	}
}

// FuzzClusterModel lets the fuzzer write the script; the seed corpus runs
// under plain go test.
func FuzzClusterModel(f *testing.F) {
	f.Add([]byte{2, 1, 250, 255, 0, 1, 250, 255, 7, 1, 3, 0, 6, 3, 70, 200, 4, 0, 8, 9, 5, 2, 0, 7, 0, 0, 0, 255, 7, 0, 0, 0, 6, 3, 6, 200})
	f.Add([]byte{7, 0, 0, 0, 4, 0, 0, 1, 4, 0, 0, 9, 5, 0, 0, 3, 5, 0, 0, 4, 6, 0, 65, 255, 6, 0, 1, 255})
	f.Add(modelScript(7, 120))
	// A flap of node 1 for four ops, with writes that miss it.
	f.Add([]byte{7, 1, 3, 1, 2, 0, 16, 200, 3, 2, 0, 255, 6, 3, 70, 200, 4, 0, 8, 9, 0, 0, 0, 255, 1, 2, 0, 255})
	f.Add(rejoinScript())
	// A second kill of each node, after the first kill of another.
	for victim, first := range [modelNodes]byte{1, 0, 0, 0} {
		f.Add(secondKillScript(first, byte(victim)))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		m := newClusterModel(t)
		m.run(script)
		m.check()
	})
}

// rejoinScript kills node 1, writes every byte below the counters while it
// is out, rejoins it with its copy-in seven ops away, and reads the whole
// space back in those seven ops: every extent the node is primary of again
// is read before the copy-in.
func rejoinScript() []byte {
	script := []byte{7, 1, 0, 0}
	for a := byte(0); a < modelCounters/256; a++ {
		script = append(script, 2, a, 0, 255)
	}
	script = append(script, 7, 0, 7, 0)
	for _, a := range []byte{0, 3, 6, 9, 12, 13} {
		script = append(script, 6, a, 0, 255)
	}
	return script
}

// secondKillScript kills node first and evicts it, writes every
// byte below the counters, rejoins it with its copy-in seven ops away, and
// writes every extent again in five ops that cross extent boundaries. Then
// it kills victim and writes every extent in the seven ops before the
// driver's eviction, which re-mirrors everything owed, and reads the whole
// space back.
func secondKillScript(first, victim byte) []byte {
	script := []byte{7, first, 0, 0}
	for a := byte(0); a < modelCounters/256; a++ {
		script = append(script, 2, a, 0, 255)
	}
	script = append(script, 7, 0, 7, 0)
	for _, a := range []byte{0, 3, 6, 9, 12} {
		script = append(script, 6, a, 64, 255)
	}
	script = append(script, 7, victim, 7, 0)
	for _, a := range []byte{0, 3, 6, 9, 12} {
		script = append(script, 6, a, 64|5, 255)
	}
	script = append(script, 2, 0, 9, 255, 2, 1, 9, 255)
	for _, a := range []byte{0, 3, 6, 9, 12} {
		script = append(script, 6, a, 0, 255)
	}
	return script
}
