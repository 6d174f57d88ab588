//go:build !race

package rmem_test

import (
	"testing"

	"repro/internal/rmem"
	"repro/internal/wire"
)

// Not under the race detector: there sync.Pool drops a share of its Puts on
// purpose, so allocation counts through the wire layer's pools mean nothing.

// TestReplayAllocsPerOp: the closed loop owns the benchmark driver's
// allocs-per-op property. Setup allocates (slots, results); an op must not,
// so doubling the ops must not change the count — beyond the odd pooled
// buffer the wire layer re-allocates when a GC cycle empties its sync.Pools
// mid-run, which is why the bound is 1 in 100 ops rather than exactly none.
func TestReplayAllocsPerOp(t *testing.T) {
	clock := wire.NewVirtualClock()
	mem := loopNode(t, clock)
	ops, addrs := seededOps(3, 4000)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			rmem.Replay(mem, ops[:n], addrs[:n], rmem.ReplayConfig{Window: 1, Now: clock.Now})
		})
	}
	short, long := allocs(2000), allocs(4000)
	if perOp := (long - short) / 2000; perOp >= 0.01 {
		t.Fatalf("%v allocs for 2000 ops, %v for 4000: %v per op, want 0", short, long, perOp)
	}
}
