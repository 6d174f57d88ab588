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

func TestMapDiff(t *testing.T) {
	m := newTestMap(t, 42, 8)
	const dead = 3
	m2, err := m.Leave(dead)
	if err != nil {
		t.Fatal(err)
	}
	moves := diff(m, m2, m2)
	if len(moves) == 0 {
		t.Fatal("no moves after a leave")
	}
	byExtent := map[int]Move{}
	for _, mv := range moves {
		byExtent[mv.Extent] = mv
	}
	for e := 0; e < m.Extents(); e++ {
		op, om := m.Extent(e)
		np, nm := m2.Extent(e)
		mv, ok := byExtent[e]
		if op != dead && om != dead {
			if ok {
				t.Fatalf("extent %d in diff but did not move", e)
			}
			continue
		}
		if !ok {
			t.Fatalf("extent %d lost node %d but not in diff", e, dead)
		}
		// The source must be a surviving old holder, preferring the primary.
		wantFrom := om
		if op != dead {
			wantFrom = op
		}
		if mv.From != wantFrom {
			t.Fatalf("extent %d: copy from %d, want surviving holder %d", e, mv.From, wantFrom)
		}
		for _, to := range mv.To {
			if to == op || to == om {
				t.Fatalf("extent %d: copy to %d, already a holder", e, to)
			}
			if to != np && to != nm {
				t.Fatalf("extent %d: copy to %d, not a new holder (%d,%d)", e, to, np, nm)
			}
		}
	}
}
