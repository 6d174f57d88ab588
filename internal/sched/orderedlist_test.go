package sched

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// popMin removes and returns the highest-priority entry.
func popMin[V any](l *orderedList[V]) (entry[V], bool) {
	return l.DeleteWhere(func(V) bool { return true })
}

func TestOrderedListBasics(t *testing.T) {
	var l orderedList[string]
	l.Insert(30, "c")
	l.Insert(10, "a")
	l.Insert(20, "b")
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	e, ok := l.PeekMinWhere(func(string) bool { return true })
	if !ok || e.Key != 10 || e.Value != "a" {
		t.Fatalf("head = %+v", e)
	}
	var got []string
	for {
		e, ok := popMin(&l)
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
		e, _ := popMin(&l)
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
	e, _ := popMin(&l)
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
			e, ok := popMin(&l)
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
			e, _ := popMin(&l)
			if e.Value != ref[i].id {
				t.Fatalf("trial %d pos %d: got id %d want %d", trial, i, e.Value, ref[i].id)
			}
		}
	}
}

func TestCycleCostConstants(t *testing.T) {
	// The paper's 3-cycle PIM iteration decomposes as: 1 cycle queue peek,
	// 1 cycle encoder arbitration, 1 cycle busy-mark (§3.1.2). Guard the
	// budget the matching latency rests on.
	if IterationCycles != 3 {
		t.Fatalf("iteration=%d cycles; PIM iteration budget broken", IterationCycles)
	}
}
