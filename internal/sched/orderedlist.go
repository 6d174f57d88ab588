package sched

import "sort"

// The hardware data structures the scheduler is built from. The paper's
// scheduler achieves constant-time PIM iterations by using recent hardware
// ordered-list designs (Shrivastav, SIGCOMM'19/'22; PIFO, SIGCOMM'16) plus a
// per-source priority encoder. In hardware these structures perform parallel
// reads, comparisons and shifts across all entries in a single clock; in
// software we model the same interface with conventional algorithms, and
// the scheduler charges the documented cycle cost (IterationCycles) when
// computing latency.
//
// The paper's per-source sorted array (§3.1.2) is not kept as a structure of
// its own. Each destination queue holds one message per source (only pair
// heads are queued), so the array's entry for a destination is always that
// head's queue key, ordered among equal keys by when it was last keyed.
// The scheduler therefore computes the encoder's result from the requests'
// own keys and key stamps (Scheduler.round).

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
