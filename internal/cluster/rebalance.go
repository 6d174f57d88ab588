package cluster

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// rebalanceChunk bounds one bulk-copy request; it divides the extent size
// evenly for every power-of-two extent >= 32 KiB and stays under the wire
// payload limit.
const rebalanceChunk = 32 << 10

// RebalanceStats summarizes one rebalance pass.
type RebalanceStats struct {
	Extents int    // extents copied
	Bytes   uint64 // bytes written to new holders
	Lost    int    // extents with no surviving holder (data loss)
	DurNS   int64  // wall/virtual duration, 0 when no clock is wired
}

// Rebalance brings replica placement up to date after an epoch change: for
// every extent whose replica set changed between old and cur, it bulk-reads
// the extent from a surviving holder and bulk-writes it to each new holder,
// directly against the node clients (routed ops would write through to the
// very replicas being rebuilt). Extents whose holders all died are counted
// in Lost and skipped; the first copy error aborts the pass.
func (c *Client) Rebalance(old, cur *Map) (RebalanceStats, error) {
	var st RebalanceStats
	var start int64
	if c.cfg.NowNS != nil {
		start = c.cfg.NowNS()
	}
	moves := Diff(old, cur)
	for _, mv := range moves {
		if mv.From < 0 {
			st.Lost++
			continue
		}
		base := uint64(mv.Extent) * cur.ExtentBytes()
		end := base + cur.ExtentBytes()
		if end > cur.Size() {
			end = cur.Size()
		}
		for a := base; a < end; a += rebalanceChunk {
			n := int(end - a)
			if n > rebalanceChunk {
				n = rebalanceChunk
			}
			data, err := c.copyChunk(mv, a, n)
			if err != nil {
				return st, err
			}
			for _, dst := range mv.To {
				if err := c.nodes[dst].WriteSync(a, data); err != nil {
					return st, fmt.Errorf("cluster: rebalance write extent %d to node %d: %w", mv.Extent, dst, err)
				}
				st.Bytes += uint64(n)
				c.metrics.RebalanceBytes.Add(uint64(n))
			}
		}
		st.Extents++
		c.metrics.RebalanceExtents.Inc()
	}
	if c.cfg.NowNS != nil {
		st.DurNS = c.cfg.NowNS() - start
		c.metrics.RebalanceNS.Observe(st.DurNS)
	}
	return st, nil
}

// copyChunk reads [a, a+n) from the move's copy source.
func (c *Client) copyChunk(mv Move, a uint64, n int) ([]byte, error) {
	data, err := c.nodes[mv.From].ReadSync(a, n)
	if err == nil {
		return data, nil
	}
	if errors.Is(err, wire.ErrTimeout) {
		return nil, fmt.Errorf("cluster: rebalance source node %d unreachable for extent %d: %w", mv.From, mv.Extent, err)
	}
	return nil, fmt.Errorf("cluster: rebalance read extent %d from node %d: %w", mv.Extent, mv.From, err)
}
