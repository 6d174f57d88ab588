// Package cluster stripes one flat address space across N memory nodes and
// survives node death, reproducing the paper's §3.3 dual-homing story at the
// service layer: every fixed-size extent of the address space is assigned to
// a primary and a mirror node (never the same node), writes go through to
// both, and reads fail over to the mirror when the primary's retry budget
// runs out. The assignment is a versioned, seed-deterministic rendezvous
// hash, so joins and leaves reassign only the extents they must and every
// routing decision is stamped with the map epoch that produced it.
//
// The client has one pipeline for the three request kinds. An op is cut
// into one segment per extent it touches (an RMW is always one), each
// segment is issued to the extent's primary (a write also to its mirror),
// and every segment request completes through one table, kind x outcome:
//
//	                  read                write, RMW write-through   RMW
//	ok                copy into the       ack                        keep the result; if memory changed
//	                  join buffer, ack                               and it ran where it was routed: bank
//	                                                                 the ack, write the stored value
//	                                                                 through to the mirror; otherwise ack
//	wire.ErrTimeout   replica miss;       replica miss               as read
//	                  first time: re-
//	                  route to the other
//	                  replica
//	anything else     fatal               fatal                      fatal
//
// A re-issue that fails inline is fatal. An op succeeds when no outcome was
// fatal and every segment was acked by at least one in-sync replica; a
// segment that was re-routed, or acked by one replica and missed by the
// other, counts one cluster_failover_total. A replica miss on a segment
// that an in-sync replica acked evicts the replica that missed before the
// op's callback fires, whatever the op kind: no later op waits out its
// retry budget, and no later read reaches a copy that missed a write. That
// is the client's one eviction rule, so a node whose partner does not answer
// either stays in the map. With only two nodes alive the replica cannot be
// evicted: a write, an RMW or a write-through then fails, while a read still
// returns its data.
//
// Routing, failover and Rebalance read one replica record: for each extent,
// the two nodes its routed ops go to, primary first, and whether each holds
// every acked write. Every map change rebuilds it from the old record, and
// the caller's Rebalance, run while no routed op is in flight, copies each
// extent to the map's pair. Until then a new or returning holder takes
// writes but serves no read, RMW or failover, and its ack alone acks
// nothing; a displaced node that holds every acked write takes its place
// while it is still in the map; and an extent whose last such node has left
// the map serves nothing, writes included. An op with no in-sync replica
// answering fails.
//
// Atomicity caveats: a split op is not atomic across extents; an RMW is
// atomic only on its primary, the mirror's copy being a write-through that
// can lag under concurrent RMWs or be lost with the primary; and failover
// assumes fail-stop nodes, so a merely-slow primary that executes a
// timed-out RMW after the client failed over double-applies it, and an RMW
// that failed over gets no write-through.
package cluster

import (
	"errors"
	"fmt"
)

// DefaultExtentBytes is the extent size when Config leaves it zero: large
// enough that almost no op spans a boundary, small enough that a 16-node map
// over a modest slab still spreads load.
const DefaultExtentBytes = 1 << 20

// Map errors.
var (
	// ErrTooFewNodes rejects maps (or leaves) that cannot dual-home: every
	// extent needs two distinct alive nodes.
	ErrTooFewNodes = errors.New("cluster: fewer than two alive nodes")
	// ErrBadExtent rejects addresses outside the cluster address space.
	ErrBadExtent = errors.New("cluster: address outside cluster space")
)

// Map is an immutable, seed-deterministic assignment of extents to a
// (primary, mirror) node pair, ranked on demand from the alive set. Leave
// and Join return a successor map with the epoch advanced; they never
// mutate the receiver, so a Map can be read without locks once published.
type Map struct {
	seed        uint64
	size        uint64 // cluster address space in bytes
	extentBytes uint64
	epoch       uint64
	alive       []bool // indexed by node
}

// NewMap builds the epoch-0 map: size bytes of address space in extents of
// extentBytes (0 takes DefaultExtentBytes, and it must be a multiple of 8 so
// an aligned RMW word never spans extents), dual-homed over nodes alive
// nodes. size is rounded down to a whole number of extents — never up, so
// Map.Size() only ever reports space the backing slabs actually hold — and
// must cover at least one extent.
func NewMap(seed, size, extentBytes uint64, nodes int) (*Map, error) {
	if extentBytes == 0 {
		extentBytes = DefaultExtentBytes
	}
	if extentBytes%8 != 0 {
		return nil, fmt.Errorf("cluster: extent size %d not a multiple of 8", extentBytes)
	}
	if nodes < 2 {
		return nil, fmt.Errorf("%w: %d", ErrTooFewNodes, nodes)
	}
	if size < extentBytes {
		return nil, fmt.Errorf("cluster: size %d smaller than one extent (%d)", size, extentBytes)
	}
	m := &Map{
		seed:        seed,
		size:        size - size%extentBytes,
		extentBytes: extentBytes,
		alive:       make([]bool, nodes),
	}
	for n := range m.alive {
		m.alive[n] = true
	}
	return m, nil
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection
// used as the rendezvous weight hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// weight ranks node for extent: highest-random-weight (rendezvous) hashing.
// A node's weight for an extent never changes, so removing one node only
// reassigns the extents it was ranked first or second for — the
// consistent-hash minimal-movement property without a ring.
func (m *Map) weight(extent, node int) uint64 {
	return mix64(m.seed ^ mix64(uint64(extent)+0x9e3779b97f4a7c15) ^ mix64(uint64(node)+0x2545f4914f6cdd1d))
}

// clone copies the map with the epoch advanced by one.
func (m *Map) clone() *Map {
	c := *m
	c.epoch++
	c.alive = append([]bool(nil), m.alive...)
	return &c
}

// Leave returns the successor map without node. It fails with ErrTooFewNodes
// when fewer than two alive nodes would remain, and returns the receiver
// itself, epoch unchanged, if the node is already dead.
func (m *Map) Leave(node int) (*Map, error) {
	if node < 0 || node >= len(m.alive) {
		return nil, fmt.Errorf("cluster: leave of unknown node %d", node)
	}
	if !m.alive[node] {
		return m, nil
	}
	c := m.clone()
	c.alive[node] = false
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	if n < 2 {
		return nil, fmt.Errorf("%w: %d after node %d leaves", ErrTooFewNodes, n, node)
	}
	return c, nil
}

// Join returns the successor map with node alive again (or for the first
// time, when the initial map was built excluding it via Leave).
func (m *Map) Join(node int) (*Map, error) {
	if node < 0 || node >= len(m.alive) {
		return nil, fmt.Errorf("cluster: join of unknown node %d", node)
	}
	c := m.clone()
	c.alive[node] = true
	return c, nil
}

// Epoch is the map version; every successor map advances it by one.
func (m *Map) Epoch() uint64 { return m.epoch }

// Size is the cluster address space in bytes (a whole number of extents).
func (m *Map) Size() uint64 { return m.size }

// ExtentBytes is the extent size.
func (m *Map) ExtentBytes() uint64 { return m.extentBytes }

// Extents is the extent count.
func (m *Map) Extents() int { return int(m.size / m.extentBytes) }

// Nodes is the total node count (alive or not).
func (m *Map) Nodes() int { return len(m.alive) }

// Alive reports whether node is in the alive set.
func (m *Map) Alive(node int) bool { return node >= 0 && node < len(m.alive) && m.alive[node] }

// Locate maps an address to its extent index.
func (m *Map) Locate(addr uint64) (int, error) {
	if addr >= m.size {
		return 0, ErrBadExtent
	}
	return int(addr / m.extentBytes), nil
}

// Extent ranks the alive nodes for extent e by weight and returns the top
// two as its (primary, mirror) pair.
func (m *Map) Extent(e int) (primary, mirror int) {
	primary, mirror = -1, -1
	var pw, mw uint64
	for n, a := range m.alive {
		if !a {
			continue
		}
		w := m.weight(e, n)
		switch {
		case primary < 0 || w > pw:
			mirror, mw = primary, pw
			primary, pw = n, w
		case mirror < 0 || w > mw:
			mirror, mw = n, w
		}
	}
	return primary, mirror
}
