package sched

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestOrderedListBasics(t *testing.T) {
	var l orderedList[string]
	l.Insert(30, "c")
	l.Insert(10, "a")
	l.Insert(20, "b")
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	e, ok := l.PeekMin()
	if !ok || e.Key != 10 || e.Value != "a" {
		t.Fatalf("PeekMin = %+v", e)
	}
	var got []string
	for {
		e, ok := l.DeleteMin()
		if !ok {
			break
		}
		got = append(got, e.Value)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("drain order %v", got)
	}
}

func TestOrderedListFIFOTies(t *testing.T) {
	var l orderedList[int]
	for i := 0; i < 10; i++ {
		l.Insert(5, i)
	}
	for i := 0; i < 10; i++ {
		e, _ := l.DeleteMin()
		if e.Value != i {
			t.Fatalf("tie order broken: got %d at position %d", e.Value, i)
		}
	}
}

func TestOrderedListPeekWhere(t *testing.T) {
	var l orderedList[int]
	l.Insert(1, 100)
	l.Insert(2, 200)
	l.Insert(3, 300)
	e, ok := l.PeekMinWhere(func(v int) bool { return v >= 200 })
	if !ok || e.Value != 200 {
		t.Fatalf("PeekMinWhere = %+v, %v", e, ok)
	}
	_, ok = l.PeekMinWhere(func(v int) bool { return v > 1000 })
	if ok {
		t.Fatal("PeekMinWhere matched nothing but returned ok")
	}
}

func TestOrderedListDeleteWhere(t *testing.T) {
	var l orderedList[int]
	for i := 0; i < 5; i++ {
		l.Insert(int64(i), i)
	}
	e, ok := l.DeleteWhere(func(v int) bool { return v == 3 })
	if !ok || e.Value != 3 || l.Len() != 4 {
		t.Fatalf("DeleteWhere: %+v len=%d", e, l.Len())
	}
	if _, ok := l.DeleteWhere(func(v int) bool { return v == 99 }); ok {
		t.Fatal("DeleteWhere found absent value")
	}
}

func TestOrderedListUpdateKey(t *testing.T) {
	var l orderedList[string]
	l.Insert(10, "x")
	l.Insert(20, "y")
	if !l.UpdateKey(func(v string) bool { return v == "y" }, 5) {
		t.Fatal("UpdateKey failed")
	}
	e, _ := l.PeekMin()
	if e.Value != "y" || e.Key != 5 {
		t.Fatalf("after update head = %+v", e)
	}
}

// Property: orderedList drains in nondecreasing key order for any input.
func TestOrderedListSortProperty(t *testing.T) {
	f := func(keys []int16) bool {
		var l orderedList[int]
		for i, k := range keys {
			l.Insert(int64(k), i)
		}
		prev := int64(-1 << 62)
		for {
			e, ok := l.DeleteMin()
			if !ok {
				break
			}
			if e.Key < prev {
				return false
			}
			prev = e.Key
		}
		return l.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the list agrees with sort.SliceStable on (key, arrival) order.
func TestOrderedListStableAgainstReference(t *testing.T) {
	rng := workload.NewPartition(42).Stream("hwsim-orderedlist")
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(64) + 1
		type item struct {
			key int64
			id  int
		}
		items := make([]item, n)
		var l orderedList[int]
		for i := range items {
			items[i] = item{key: int64(rng.Intn(8)), id: i}
			l.Insert(items[i].key, items[i].id)
		}
		ref := append([]item(nil), items...)
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].key < ref[b].key })
		for i := 0; i < n; i++ {
			e, _ := l.DeleteMin()
			if e.Value != ref[i].id {
				t.Fatalf("trial %d pos %d: got id %d want %d", trial, i, e.Value, ref[i].id)
			}
		}
	}
}

func TestSortedArrayArbitrate(t *testing.T) {
	s := &sortedArray{}
	// dst 3 has priority 50, dst 1 has 10 (best), dst 6 has 30.
	s.Update(3, 50)
	s.Update(1, 10)
	s.Update(6, 30)
	dst, ok := s.Arbitrate(map[int]bool{3: true, 6: true})
	if !ok || dst != 6 {
		t.Fatalf("Arbitrate({3,6}) = %d,%v want 6", dst, ok)
	}
	dst, ok = s.Arbitrate(map[int]bool{3: true, 6: true, 1: true})
	if !ok || dst != 1 {
		t.Fatalf("Arbitrate(all) = %d,%v want 1", dst, ok)
	}
	if _, ok := s.Arbitrate(map[int]bool{7: true}); ok {
		t.Fatal("Arbitrate matched unknown dst")
	}
}

func TestSortedArrayUpdateMovesPriority(t *testing.T) {
	s := &sortedArray{}
	s.Update(0, 100)
	s.Update(1, 200)
	// Re-update dst 1 to the best priority; must win arbitration now.
	s.Update(1, 1)
	dst, ok := s.Arbitrate(map[int]bool{0: true, 1: true})
	if !ok || dst != 1 {
		t.Fatalf("after update Arbitrate = %d", dst)
	}
	s.Remove(1)
	if s.Len() != 1 {
		t.Fatalf("Len after remove = %d", s.Len())
	}
}

// Property: Arbitrate always returns the requesting destination with the
// minimum key.
func TestSortedArrayArbitrateProperty(t *testing.T) {
	f := func(keys []uint8, mask uint8) bool {
		if len(keys) == 0 {
			return true
		}
		if len(keys) > 8 {
			keys = keys[:8]
		}
		s := &sortedArray{}
		for d, k := range keys {
			s.Update(d, int64(k))
		}
		req := map[int]bool{}
		bestKey := int64(1 << 40)
		bestSet := false
		for d := range keys {
			if mask&(1<<uint(d)) != 0 {
				req[d] = true
				if int64(keys[d]) < bestKey {
					bestKey = int64(keys[d])
					bestSet = true
				}
			}
		}
		dst, ok := s.Arbitrate(req)
		if !bestSet {
			return !ok
		}
		return ok && int64(keys[dst]) == bestKey && req[dst]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCycleCostConstants(t *testing.T) {
	// The paper's 3-cycle PIM iteration decomposes as: 1 cycle queue peek,
	// 1 cycle encoder arbitration, 1 cycle busy-mark. Guard the data
	// structure costs that claim rests on.
	if PeekCycles != 1 || IterationCycles != PeekCycles+2 {
		t.Fatalf("peek=%d iteration=%d; PIM iteration budget broken", PeekCycles, IterationCycles)
	}
	if InsertCycles != 2 || DeleteCycles != 2 {
		t.Fatalf("insert=%d delete=%d; pipelined op cost broken", InsertCycles, DeleteCycles)
	}
}
