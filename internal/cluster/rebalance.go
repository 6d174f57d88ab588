package cluster

import "fmt"

// rebalanceChunk bounds one bulk-copy request; it divides the extent size
// evenly for every power-of-two extent >= 32 KiB and stays under the wire
// payload limit.
const rebalanceChunk = 32 << 10

// replicas is one extent's entry in the client's replica record: the nodes
// its routed ops go to, primary first, and which of them holds every acked
// write. node[0] always does, and takes reads and RMWs; writes go to both.
type replicas struct {
	node [2]int
	// in: node[1] holds every acked write too. Otherwise it awaits its copy:
	// it takes writes, but serves no read, RMW or failover, and its ack
	// alone acks nothing.
	in bool
	// out: no node in the map holds every acked write. node[0] is the one
	// that left holding them and Rebalance's only copy source; node[1] is
	// -1, and the extent serves nothing, writes included.
	out bool
}

// holds reports whether node n holds every acked write of the extent.
func (r replicas) holds(n int) bool { return n == r.node[0] || r.in && n == r.node[1] }

// record builds the replica record for map m from the record before the
// change (nil: every holder of m is in sync), in one pass over the extents,
// and counts the extents not yet on m's pair in sync. A target holder that
// prev holds in sync stays in sync; a new or returning one awaits its copy.
// Make-before-break: a node prev holds in sync that is still in the map but
// no longer a target takes an uncopied target's place until Rebalance
// copies the target in.
func record(prev []replicas, m *Map) (rec []replicas, owed int) {
	rec = make([]replicas, m.Extents())
	for e := range rec {
		p, q := m.Extent(e)
		want := replicas{node: [2]int{p, q}, in: true}
		if prev == nil {
			rec[e] = want
			continue
		}
		r := prev[e]
		if !m.Alive(r.node[0]) && !(r.in && m.Alive(r.node[1])) {
			rec[e] = replicas{node: [2]int{r.node[0], -1}, out: true}
			owed++
			continue
		}
		n, held := want, [2]bool{r.holds(p), r.holds(q)}
		for i := range n.node {
			for j := 0; j < 2 && !held[i]; j++ {
				if x := r.node[j]; r.holds(x) && x != p && x != q && x != n.node[0] && m.Alive(x) {
					n.node[i], held[i] = x, true
				}
			}
		}
		if !held[0] { // reads and RMWs go to node[0]
			n.node[0], n.node[1], held[1] = n.node[1], n.node[0], false
		}
		n.in = held[1]
		if n != want {
			owed++
		}
		rec[e] = n
	}
	return rec, owed
}

// publishLocked installs the record rebuilt from prev against the active
// map and sets the owed gauge. c.mu must be held.
func (c *Client) publishLocked(prev []replicas) {
	rec, owed := record(prev, c.m)
	c.rec = rec
	c.metrics.RemirrorsOwed.Set(int64(owed))
}

// RebalanceStats summarizes one rebalance pass.
type RebalanceStats struct {
	Extents int    // extents copied
	Bytes   uint64 // bytes written to new holders
	Lost    int    // extents with no surviving holder (data loss)
	DurNS   int64  // wall/virtual duration, 0 when no clock is wired
}

// Rebalance brings every extent onto the active map's pair in sync. It walks
// the replica record in extent order and copies each extent whose target
// holders are not both in sync once, in rebalanceChunk pieces, from a node
// that holds every acked write to each target holder that does not,
// directly against the node clients (routed ops would write through to the
// very replicas being rebuilt). Then it publishes the new record, and the
// copied holders serve. Every map change leaves copies owed: a MarkDead, a
// Rejoin, or an eviction of the client's own (a replica that timed out while
// its partner answered).
//
// A source that does not answer is asked nothing more in the pass: the copy
// falls back to the extent's other in-sync node. When every source in the map
// has failed, the pass ends with the error, counts in
// cluster_rebalance_errors_total, and leaves the rest owed to the next call.
// When the only source is a node that has left the map, and it does not
// answer, the extent counts in Lost and its targets serve from then on.
//
// The caller must call Rebalance only while no routed op is in flight. A
// routed write that lands on a new holder between a chunk's read from the
// source and its write to that holder is overwritten by the older bytes,
// and the acked write is lost on that replica. Nothing fences the two.
func (c *Client) Rebalance() (RebalanceStats, error) {
	var st RebalanceStats
	var start int64
	if c.cfg.NowNS != nil {
		start = c.cfg.NowNS()
	}
	c.mu.Lock()
	m, rec := c.m, c.rec
	c.mu.Unlock()
	done := append([]replicas(nil), rec...)
	gone := make([]error, len(c.nodes)) // why each source that did not answer failed
	var err error
	for e, r := range rec {
		p, q := m.Extent(e)
		want := replicas{node: [2]int{p, q}, in: true}
		if r == want {
			continue
		}
		var lost bool
		if lost, err = c.copyIn(e, r, want.node, gone, &st); err != nil {
			break
		}
		if lost {
			st.Lost++
		} else {
			st.Extents++
			c.metrics.RebalanceExtents.Inc()
		}
		done[e] = want
	}
	c.mu.Lock()
	c.publishLocked(done)
	c.mu.Unlock()
	if err != nil {
		c.metrics.RebalanceErrors.Inc()
		return st, err
	}
	if c.cfg.NowNS != nil {
		st.DurNS = c.cfg.NowNS() - start
		c.metrics.RebalanceNS.Observe(st.DurNS)
	}
	return st, nil
}

// copyIn copies extent e from a node r holds in sync to each of to that r
// does not, counting into st. It reports the extent lost when its only
// source has left the map and does not answer.
func (c *Client) copyIn(e int, r replicas, to [2]int, gone []error, st *RebalanceStats) (lost bool, err error) {
	base := uint64(e) * c.cfg.ExtentBytes
	for a := base; a < base+c.cfg.ExtentBytes; a += rebalanceChunk {
		n := int(min(rebalanceChunk, base+c.cfg.ExtentBytes-a))
		var data []byte
		for {
			src := r.node[0]
			if gone[src] != nil && r.in {
				src = r.node[1]
			}
			if gone[src] != nil && r.out {
				return true, nil
			}
			if gone[src] != nil {
				return false, fmt.Errorf("cluster: rebalance extent %d: no in-sync node answers: %w", e, gone[src])
			}
			if data, err = c.nodes[src].ReadSync(a, n); err == nil {
				break
			}
			gone[src] = fmt.Errorf("read from node %d: %w", src, err)
		}
		for _, dst := range to {
			if r.holds(dst) {
				continue
			}
			if err := c.nodes[dst].WriteSync(a, data); err != nil {
				return false, fmt.Errorf("cluster: rebalance write extent %d to node %d: %w", e, dst, err)
			}
			st.Bytes += uint64(n)
			c.metrics.RebalanceBytes.Add(uint64(n))
		}
	}
	return false, nil
}
