package sched

import "sort"

// The hardware data structures the scheduler is built from, with their
// cycle costs. The paper's scheduler achieves constant-time PIM iterations
// by using recent hardware ordered-list designs (Shrivastav, SIGCOMM'19/'22;
// PIFO, SIGCOMM'16) plus a priority encoder. In hardware these structures
// perform parallel reads, comparisons and shifts across all entries in a
// single clock; in software we model the same interface with conventional
// algorithms, and the scheduler charges the documented cycle costs
// (IterationCycles) when computing latency.

// Cycle costs of the ordered-list hardware (§3.1.2): inserts and deletes
// take 2 cycles and are fully pipelined (a new operation may be issued every
// cycle); reading the head takes 1 cycle.
const (
	InsertCycles = 2
	DeleteCycles = 2
	PeekCycles   = 1
)

// entry is one ordered-list element: a 64-bit priority key (lower value =
// higher priority) and an opaque value.
type entry[V any] struct {
	Key   int64
	Value V
	seq   uint64 // insertion order; ties dequeue FIFO, matching shift-register hardware
}

// orderedList is a constant-cycle hardware priority queue model. Entries are
// kept sorted ascending by (Key, insertion order).
type orderedList[V any] struct {
	entries []entry[V]
	nextSeq uint64
}

// Len reports the number of entries.
func (l *orderedList[V]) Len() int { return len(l.entries) }

// Insert adds an entry.
func (l *orderedList[V]) Insert(key int64, v V) {
	e := entry[V]{Key: key, Value: v, seq: l.nextSeq}
	l.nextSeq++
	i := sort.Search(len(l.entries), func(i int) bool {
		other := l.entries[i]
		if other.Key != key {
			return other.Key > key
		}
		return other.seq > e.seq
	})
	l.entries = append(l.entries, entry[V]{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
}

// PeekMin returns the highest-priority entry without removing it.
func (l *orderedList[V]) PeekMin() (entry[V], bool) {
	if len(l.entries) == 0 {
		return entry[V]{}, false
	}
	return l.entries[0], true
}

// PeekMinWhere returns the highest-priority entry satisfying pred. In
// hardware the predicate is a parallel mask over all entries evaluated in
// the same cycle as the read (this is how PIM step 1 skips busy sources).
func (l *orderedList[V]) PeekMinWhere(pred func(V) bool) (entry[V], bool) {
	for _, e := range l.entries {
		if pred(e.Value) {
			return e, true
		}
	}
	return entry[V]{}, false
}

// DeleteMin removes and returns the highest-priority entry.
func (l *orderedList[V]) DeleteMin() (entry[V], bool) {
	if len(l.entries) == 0 {
		return entry[V]{}, false
	}
	e := l.entries[0]
	l.entries = l.entries[1:]
	return e, true
}

// DeleteWhere removes the first (highest-priority) entry satisfying pred and
// reports whether one was found.
func (l *orderedList[V]) DeleteWhere(pred func(V) bool) (entry[V], bool) {
	for i, e := range l.entries {
		if pred(e.Value) {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return e, true
		}
	}
	return entry[V]{}, false
}

// UpdateKey changes the priority of the first entry satisfying pred,
// preserving FIFO order among equal keys. Hardware implements this as a
// delete+insert pipeline (the paper updates priorities when remaining bytes
// change under SRPT).
func (l *orderedList[V]) UpdateKey(pred func(V) bool, newKey int64) bool {
	e, ok := l.DeleteWhere(pred)
	if !ok {
		return false
	}
	l.Insert(newKey, e.Value)
	return true
}

// sortedArray is the per-source-port structure from §3.1.2: the destination
// ports kept sorted by the priority of each destination's best pending
// message. In hardware a priority encoder over the array indices resolves
// PIM's second cycle: each requesting destination sets the bit at its
// position in parallel, and the encoder returns the lowest set position —
// the highest-priority requester — in one cycle. The zero value is empty.
type sortedArray struct {
	list orderedList[int] // value = destination port
}

// Update sets destination dst's priority key, inserting it if absent. Called
// on every demand notification arrival and priority change, mirroring the
// notification queue updates.
func (s *sortedArray) Update(dst int, key int64) {
	s.list.DeleteWhere(func(d int) bool { return d == dst })
	s.list.Insert(key, dst)
}

// Remove deletes destination dst from the array (its queue went empty).
func (s *sortedArray) Remove(dst int) {
	s.list.DeleteWhere(func(d int) bool { return d == dst })
}

// Len reports how many destinations are present.
func (s *sortedArray) Len() int { return s.list.Len() }

// Arbitrate resolves one PIM grant cycle: given the set of destinations
// requesting this source, it returns the one whose queue priority is
// highest — what the encoder reports.
func (s *sortedArray) Arbitrate(requesting map[int]bool) (int, bool) {
	e, ok := s.list.PeekMinWhere(func(d int) bool { return requesting[d] })
	return e.Value, ok
}
