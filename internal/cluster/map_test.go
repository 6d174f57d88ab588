package cluster

import (
	"errors"
	"testing"
)

func newTestMap(t *testing.T, seed uint64, nodes int) *Map {
	t.Helper()
	m, err := NewMap(seed, 64<<20, 1<<20, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapDeterministic(t *testing.T) {
	a := newTestMap(t, 42, 16)
	b := newTestMap(t, 42, 16)
	for e := 0; e < a.Extents(); e++ {
		ap, am := a.Extent(e)
		bp, bm := b.Extent(e)
		if ap != bp || am != bm {
			t.Fatalf("extent %d: (%d,%d) vs (%d,%d) for equal seeds", e, ap, am, bp, bm)
		}
	}
	c := newTestMap(t, 43, 16)
	same := true
	for e := 0; e < a.Extents(); e++ {
		ap, am := a.Extent(e)
		cp, cm := c.Extent(e)
		if ap != cp || am != cm {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical assignments")
	}
}

func TestMapInvariants(t *testing.T) {
	m := newTestMap(t, 7, 5)
	if m.Epoch() != 0 {
		t.Fatalf("fresh map epoch %d, want 0", m.Epoch())
	}
	if m.Size()%m.ExtentBytes() != 0 {
		t.Fatalf("size %d not a whole number of %d-byte extents", m.Size(), m.ExtentBytes())
	}
	seen := make([]int, m.Nodes())
	for e := 0; e < m.Extents(); e++ {
		pri, mir := m.Extent(e)
		if pri == mir {
			t.Fatalf("extent %d: primary == mirror == %d", e, pri)
		}
		if !m.Alive(pri) || !m.Alive(mir) {
			t.Fatalf("extent %d: dead holder (%d, %d)", e, pri, mir)
		}
		seen[pri]++
		seen[mir]++
	}
	for n, c := range seen {
		if c == 0 {
			t.Errorf("node %d holds no extents of %d", n, m.Extents())
		}
	}
}

func TestMapLocate(t *testing.T) {
	m := newTestMap(t, 1, 3)
	eb := m.ExtentBytes()
	for _, tc := range []struct {
		addr uint64
		want int
	}{{0, 0}, {eb - 1, 0}, {eb, 1}, {5*eb + 17, 5}} {
		e, err := m.Locate(tc.addr)
		if err != nil || e != tc.want {
			t.Fatalf("Locate(%d) = %d, %v; want %d", tc.addr, e, err, tc.want)
		}
	}
	if _, err := m.Locate(m.Size()); !errors.Is(err, ErrBadExtent) {
		t.Fatalf("Locate(size) err = %v, want ErrBadExtent", err)
	}
}

// TestMapMinimalMovement is the consistent-hashing property: a leave only
// reassigns extents the dead node held, and a join only claims extents the
// new node now ranks in the top two for.
func TestMapMinimalMovement(t *testing.T) {
	m := newTestMap(t, 42, 16)
	const dead = 5
	m2, err := m.Leave(dead)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch() != 1 {
		t.Fatalf("epoch after leave %d, want 1", m2.Epoch())
	}
	moved := 0
	for e := 0; e < m.Extents(); e++ {
		op, om := m.Extent(e)
		np, nm := m2.Extent(e)
		if np == dead || nm == dead {
			t.Fatalf("extent %d still assigned to dead node %d", e, dead)
		}
		if op != dead && om != dead {
			if op != np || om != nm {
				t.Fatalf("extent %d moved (%d,%d)->(%d,%d) though node %d held neither replica",
					e, op, om, np, nm, dead)
			}
			continue
		}
		moved++
		// The surviving holder keeps its role's data; only the dead slot is
		// re-filled (primary promotion is allowed: mirror may become primary).
		if op != dead && np != op && nm != op {
			t.Fatalf("extent %d dropped surviving primary %d: now (%d,%d)", e, op, np, nm)
		}
		if om != dead && np != om && nm != om {
			t.Fatalf("extent %d dropped surviving mirror %d: now (%d,%d)", e, om, np, nm)
		}
	}
	if moved == 0 {
		t.Fatal("node 5 held no extents — weight function suspect")
	}

	// Rejoining restores the epoch-0 assignment exactly (weights are pure
	// functions of (seed, extent, node)).
	m3, err := m2.Join(dead)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Epoch() != 2 {
		t.Fatalf("epoch after rejoin %d, want 2", m3.Epoch())
	}
	for e := 0; e < m.Extents(); e++ {
		op, om := m.Extent(e)
		np, nm := m3.Extent(e)
		if op != np || om != nm {
			t.Fatalf("extent %d: rejoin gave (%d,%d), original (%d,%d)", e, np, nm, op, om)
		}
	}
}

func TestMapLeaveTooFew(t *testing.T) {
	m := newTestMap(t, 9, 2)
	if _, err := m.Leave(0); !errors.Is(err, ErrTooFewNodes) {
		t.Fatalf("leave to 1 alive: err = %v, want ErrTooFewNodes", err)
	}
	if _, err := NewMap(1, 1<<20, 1<<20, 1); !errors.Is(err, ErrTooFewNodes) {
		t.Fatalf("1-node map: err = %v, want ErrTooFewNodes", err)
	}
}

// TestReplicaRecord walks the record's rules through a leave, a rejoin and
// the leave of an extent's last in-sync holder, extent by extent against the
// maps' pairs.
func TestReplicaRecord(t *testing.T) {
	m := newTestMap(t, 42, 8)
	const dead = 3
	synced, owed := record(nil, m)
	if owed != 0 {
		t.Fatalf("fresh record owes %d extents", owed)
	}
	m1, err := m.Leave(dead)
	if err != nil {
		t.Fatal(err)
	}
	// A leave: the surviving holder is primary and in sync, the new holder
	// awaits its copy; extents the node did not hold keep their pair.
	left, owed := record(synced, m1)
	moved := 0
	for e := 0; e < m.Extents(); e++ {
		p, q := m.Extent(e)
		np, nq := m1.Extent(e)
		r := left[e]
		if p != dead && q != dead {
			if r != (replicas{node: [2]int{np, nq}, in: true}) {
				t.Fatalf("extent %d on %d/%d, untouched by the leave: record %+v", e, np, nq, r)
			}
			continue
		}
		moved++
		survivor := p
		if p == dead {
			survivor = q
		}
		if r.node[0] != survivor || r.in || r.out || (r.node[1] != np && r.node[1] != nq) || r.node[1] == survivor {
			t.Fatalf("extent %d %d/%d -> %d/%d: record %+v, want survivor %d first and the new holder uncopied", e, p, q, np, nq, r, survivor)
		}
	}
	if moved == 0 || owed != moved {
		t.Fatalf("owed %d after a leave that moved %d extents", owed, moved)
	}
	// A rejoin once every extent is in sync on m1: the returning node
	// awaits its copy, and the holder it displaces keeps its place.
	m2, err := m1.Join(dead)
	if err != nil {
		t.Fatal(err)
	}
	synced1, _ := record(nil, m1)
	joined, owed := record(synced1, m2)
	if owed != moved {
		t.Fatalf("owed %d after the rejoin, want the %d extents it takes back", owed, moved)
	}
	for e := 0; e < m.Extents(); e++ {
		r, was := joined[e], synced1[e]
		if p, q := m2.Extent(e); p != dead && q != dead {
			continue
		}
		if !r.in || r.out || r.node[0] == dead || r.node[1] == dead || !was.holds(r.node[0]) || !was.holds(r.node[1]) {
			t.Fatalf("extent %d after the rejoin: record %+v, want its in-sync pair %+v kept", e, r, was.node)
		}
	}
	// The last in-sync holder leaves before the copy: the extent serves
	// nothing, and the holder that left is the only source.
	for e := 0; e < m.Extents(); e++ {
		r := left[e]
		if r.in {
			continue
		}
		m3, err := m1.Leave(r.node[0])
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := record(left, m3)
		if want := (replicas{node: [2]int{r.node[0], -1}, out: true}); rec[e] != want {
			t.Fatalf("extent %d after its last in-sync holder left: %+v, want %+v", e, rec[e], want)
		}
		// Its return puts it back in sync.
		m4, err := m3.Join(r.node[0])
		if err != nil {
			t.Fatal(err)
		}
		if back, _ := record(rec, m4); back[e].out || !back[e].holds(r.node[0]) {
			t.Fatalf("extent %d after node %d's return: %+v", e, r.node[0], back[e])
		}
		break
	}
}
