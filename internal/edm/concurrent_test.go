package edm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/memctl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestBidirectionalPairNoIDCollision is the regression test for the
// message-ID collision between the two directions of a pair: host A's
// writes to B and B's reads from A both land in scheduler pair (A->B) and
// in A's send table under {B, id} — with IDs allocated by two different
// hosts' counters. Before the ID space was split by parity (writes even,
// reads odd), both started at 0, so the scheduler rejected the read demand
// as a duplicate and the memory node's RRES state overwrote the write's,
// stranding ops until timeout.
func TestBidirectionalPairNoIDCollision(t *testing.T) {
	f := New(DefaultConfig(4))
	for i := 0; i < 4; i++ {
		f.AttachMemory(i, memctl.New(memctl.DefaultConfig()))
	}
	const each = 30
	done, failed := 0, 0
	for i := 0; i < each; i++ {
		at := sim.Time(i) * 100 * sim.Nanosecond
		// A(0) writes to B(1) while B(1) reads from A(0), interleaved so
		// both directions of pair (0,1) are concurrently active.
		f.Engine.At(at, func() {
			f.Host(0).Write(1, 0, make([]byte, 64), func(err error) {
				done++
				if err != nil {
					failed++
				}
			})
		})
		f.Engine.At(at+10*sim.Nanosecond, func() {
			f.Host(1).Read(0, 4096, 64, func(_ []byte, err error) {
				done++
				if err != nil {
					failed++
				}
			})
		})
	}
	f.Run()
	if done != 2*each || failed != 0 {
		t.Fatalf("completed %d of %d, failed %d", done, 2*each, failed)
	}
	if rej := f.Switch().Stats().RejectedNotify; rej != 0 {
		t.Fatalf("%d notifications rejected (ID spaces collide)", rej)
	}
	var timeouts uint64
	for i := 0; i < 4; i++ {
		timeouts += f.Host(i).Stats().Timeouts
	}
	if timeouts != 0 {
		t.Fatalf("%d reads timed out", timeouts)
	}
}

// TestMixedTrafficLosesNoOps: a read by B from A and a write by A to B are
// both A->B data, admitted by two hosts' independent windows, so a pair can
// carry up to 2X notifications. The switch must hold them in the pair's
// FIFO: a cap of X there rejected the excess, and each rejection silently
// lost one op. Read-only and write-only traffic reach no pair from two
// windows and guard the rows that never lost anything.
func TestMixedTrafficLosesNoOps(t *testing.T) {
	const nodes, count = 8, 2000
	for _, readFrac := range []float64{0, 0.5, 1} {
		for _, load := range []float64{0.3, 0.45, 0.6, 0.9} {
			t.Run(fmt.Sprintf("read%g/load%g", readFrac, load), func(t *testing.T) {
				// The trace a one-phase seed-3 fabric scenario replays.
				part := workload.NewPartition(3).Sub("phase/0")
				ops, err := workload.GeneratePartitioned(part, workload.GenConfig{
					Nodes: nodes, Load: load, Bandwidth: LinkBandwidth,
					Sizes: workload.Fixed(64), ReadFrac: readFrac, Count: count,
				})
				if err != nil {
					t.Fatal(err)
				}
				f := New(DefaultConfig(nodes))
				for i := 0; i < nodes; i++ {
					f.AttachMemory(i, memctl.New(memctl.DefaultConfig()))
				}
				done, failed := 0, 0
				finish := func(err error) {
					done++
					if err != nil {
						failed++
					}
				}
				for _, op := range ops {
					op := op
					addr := uint64(op.Index%1024) * 64
					f.Engine.At(op.Arrival, func() {
						if op.Read {
							f.Host(op.Src).Read(op.Dst, addr, op.Size, func(_ []byte, err error) { finish(err) })
						} else {
							f.Host(op.Src).Write(op.Dst, addr, make([]byte, op.Size), finish)
						}
					})
				}
				f.Run()
				var timeouts uint64
				for i := 0; i < nodes; i++ {
					timeouts += f.Host(i).Stats().Timeouts
				}
				rej := f.Switch().Stats().RejectedNotify
				if done != count || failed != 0 || timeouts != 0 || rej != 0 {
					t.Fatalf("completed %d of %d, failed %d, timeouts %d, rejected notifications %d",
						done, count, failed, timeouts, rej)
				}
			})
		}
	}
}

// TestConcurrentReadsCircuitOrder is the regression test for circuit-FIFO
// misalignment: the switch used to record a grant's ingress->egress circuit
// at issue time, but an implicit first-RRES grant (the forwarded RREQ,
// SwForwardCycles) and an explicit /G/ (SwGenGrantCycles) reach the data
// sender with different delays, so its chunks could leave in the opposite
// of issue order and be forwarded to the wrong egress port. With the
// scheduler clocked at the PCS period the pipeline spacing happens to
// exceed the skew, so the test runs the 3 GHz ASIC scheduler clock of
// §4.3, where back-to-back grants to one source sit inside the skew
// window. Every read must return its own data.
func TestConcurrentReadsCircuitOrder(t *testing.T) {
	const ports = 8
	f := newFabric(DefaultConfig(ports), sched.ASICClockPeriod)
	mem := memctl.New(memctl.DefaultConfig())
	f.AttachMemory(0, mem)
	// Give each reader a distinct pattern at a distinct address.
	for r := 1; r < ports; r++ {
		buf := make([]byte, 256)
		for i := range buf {
			buf[i] = byte(r)
		}
		if _, err := mem.Write(uint64(r)*4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	done, wrong, failed := 0, 0, 0
	const rounds = 20
	for k := 0; k < rounds; k++ {
		for r := 1; r < ports; r++ {
			r := r
			// Alternate tiny (8 B) and multi-chunk (256 B) reads issued
			// back to back: an 8 B first chunk releases the scheduler's
			// source port in ~2.5 ns, under the 3-cycle delay gap between
			// the implicit and explicit grant paths, which is what lets a
			// later-issued /G/ overtake an earlier forwarded RREQ.
			n := 8
			if r%2 == 0 {
				n = 256
			}
			at := sim.Time(k*ports+r) * 5 * sim.Nanosecond
			f.Engine.At(at, func() {
				f.Host(r).Read(0, uint64(r)*4096, n, func(data []byte, err error) {
					done++
					if err != nil {
						failed++
						return
					}
					for _, b := range data {
						if b != byte(r) {
							wrong++
							return
						}
					}
				})
			})
		}
	}
	f.Run()
	want := rounds * (ports - 1)
	if done != want || failed != 0 {
		t.Fatalf("completed %d of %d, failed %d", done, want, failed)
	}
	if wrong != 0 {
		t.Fatalf("%d reads returned another reader's data (chunks misrouted)", wrong)
	}
}

// TestIDWrapFailsFast: the 7-bit per-destination ID counter wraps after 128
// submissions; an op whose ID is still in flight must be rejected with
// ErrTooManyOut rather than silently crossing state with the old op.
func TestIDWrapFailsFast(t *testing.T) {
	f := New(DefaultConfig(4))
	for i := 0; i < 4; i++ {
		f.AttachMemory(i, memctl.New(memctl.DefaultConfig()))
	}
	const burst = 200
	completed, rejected, otherErr := 0, 0, 0
	f.Engine.At(0, func() {
		for i := 0; i < burst; i++ {
			f.Host(0).Write(1, 0, make([]byte, 64), func(err error) {
				switch {
				case err == nil:
					completed++
				case errors.Is(err, ErrTooManyOut):
					rejected++
				default:
					otherErr++
				}
			})
		}
	})
	f.Run()
	if otherErr != 0 {
		t.Fatalf("%d unexpected errors", otherErr)
	}
	if completed != 128 || rejected != burst-128 {
		t.Fatalf("completed %d rejected %d (want 128/%d): ID wrap not guarded",
			completed, rejected, burst-128)
	}
}

// TestGrantLossResyncsCircuits: a grant block dropped on a disabled link
// leaves a stale head in the switch's circuit FIFO for that ingress; without
// the dst-match resync every post-recovery chunk from that ingress would be
// routed one circuit behind (to the wrong egress) forever. Reads during the
// outage may fail — reads issued well after recovery must all succeed.
func TestGrantLossResyncsCircuits(t *testing.T) {
	const ports = 4
	f := New(DefaultConfig(ports))
	for i := 0; i < ports; i++ {
		f.AttachMemory(i, memctl.New(memctl.DefaultConfig()))
	}
	// Requester 1 reads from memory node 0 continuously across an outage
	// of node 0's links, so grants toward node 0 are dropped and their
	// circuits (all toward egress 1) go stale. Using a single requester
	// here keeps the stale heads distinct from the fresh phase's
	// destinations — a rotating pattern can realign with the stale FIFO
	// by coincidence and mask the bug.
	for i := 0; i < 60; i++ {
		at := sim.Time(i) * 50 * sim.Nanosecond
		f.Engine.At(at, func() {
			f.Host(1).Read(0, 4096, 64, func([]byte, error) {})
		})
	}
	f.Engine.At(1*sim.Microsecond, func() { f.DisableLink(0) })
	f.Engine.At(2*sim.Microsecond, func() { f.EnableLink(0) })
	// Fresh reads from the OTHER requesters long after recovery (outage
	// reads have timed out by 103us): every one must complete cleanly.
	freshDone, freshFailed := 0, 0
	const fresh = 30
	for i := 0; i < fresh; i++ {
		r := 2 + i%2
		at := 150*sim.Microsecond + sim.Time(i)*100*sim.Nanosecond
		f.Engine.At(at, func() {
			f.Host(r).Read(0, uint64(r)*4096, 64, func(_ []byte, err error) {
				freshDone++
				if err != nil {
					freshFailed++
				}
			})
		})
	}
	f.Run()
	if freshDone != fresh || freshFailed != 0 {
		t.Fatalf("post-recovery reads: %d/%d done, %d failed (stale circuits not resynced; resyncs=%d)",
			freshDone, fresh, freshFailed, f.Switch().Stats().CircuitResyncs)
	}
}
