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

// Rebalance runs the re-mirrors the client owes, oldest first. Every map
// change is owed: a MarkDead, a Rejoin, or an eviction of the client's own
// (a replica that timed out while its partner answered). For each, every
// extent whose replica set the change altered is bulk-read from a surviving
// holder and bulk-written to each new holder that still holds it in the
// active map, directly against the node clients (routed ops would write
// through to the very replicas being rebuilt). A copy source still in the
// active map is preferred; one that has left it since is still tried, and if
// it does not answer, its extents count in Lost, as do extents whose holders
// all left. The first other copy error ends the pass, counts in
// cluster_rebalance_errors_total, and leaves the change it was copying owed
// to the next call.
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
	for {
		c.mu.Lock()
		if len(c.owed) == 0 {
			c.mu.Unlock()
			break
		}
		mv, now := c.owed[0], c.m
		c.mu.Unlock()
		if err := c.copyMoves(diff(mv.old, mv.cur, now), now, &st); err != nil {
			c.metrics.RebalanceErrors.Inc()
			return st, err
		}
		c.mu.Lock()
		if len(c.owed) > 0 && c.owed[0] == mv {
			c.owed = c.owed[1:]
			c.metrics.RemirrorsOwed.Set(int64(len(c.owed)))
			c.fenceLocked()
		}
		c.mu.Unlock()
	}
	if c.cfg.NowNS != nil {
		st.DurNS = c.cfg.NowNS() - start
		c.metrics.RebalanceNS.Observe(st.DurNS)
	}
	return st, nil
}

// copyMoves copies each move's extent from its source to its new holders,
// counting into st. A source out of the active map now that fails to
// answer loses its extents rather than the pass, and is not asked again.
func (c *Client) copyMoves(moves []Move, now *Map, st *RebalanceStats) error {
	gone := make([]bool, len(c.nodes))
moves:
	for _, mv := range moves {
		if mv.From < 0 || gone[mv.From] {
			st.Lost++
			continue
		}
		base := uint64(mv.Extent) * c.cfg.ExtentBytes
		end := base + c.cfg.ExtentBytes
		if end > c.cfg.Size {
			end = c.cfg.Size
		}
		for a := base; a < end; a += rebalanceChunk {
			n := int(end - a)
			if n > rebalanceChunk {
				n = rebalanceChunk
			}
			data, err := c.copyChunk(mv, a, n)
			if err != nil && !now.Alive(mv.From) {
				gone[mv.From] = true
				st.Lost++
				continue moves
			}
			if err != nil {
				return err
			}
			for _, dst := range mv.To {
				if err := c.nodes[dst].WriteSync(a, data); err != nil {
					return fmt.Errorf("cluster: rebalance write extent %d to node %d: %w", mv.Extent, dst, err)
				}
				st.Bytes += uint64(n)
				c.metrics.RebalanceBytes.Add(uint64(n))
			}
		}
		st.Extents++
		c.metrics.RebalanceExtents.Inc()
	}
	return nil
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
