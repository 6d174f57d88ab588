package edm

import (
	"testing"

	"repro/internal/memctl"
	"repro/internal/workload"
)

// TestZeroQueuingAtSwitch verifies the paper's §3.1.1 property 1: because
// the matching admits at most one sender per receiver, the switch never
// accumulates more than about one in-flight chunk (plus single-block
// control messages) on any egress port, even under a sustained incast of
// remote reads from many compute nodes to one memory node.
func TestZeroQueuingAtSwitch(t *testing.T) {
	const computes = 8
	f := New(DefaultConfig(computes + 1))
	f.AttachMemory(computes, fastMem())
	mem := f.Host(computes).Memory()
	for i := 0; i < computes; i++ {
		if _, err := mem.Write(uint64(i)*4096, make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	// Three rounds of full incast.
	done := 0
	for r := 0; r < 3; r++ {
		for i := 0; i < computes; i++ {
			i := i
			f.Host(i).Read(computes, uint64(i)*4096, 256, func(_ []byte, err error) {
				if err != nil {
					t.Errorf("read: %v", err)
				}
				done++
			})
		}
		f.Run()
	}
	if done != 3*computes {
		t.Fatalf("completed %d", done)
	}
	st := f.Switch().Stats()
	// One 64 B chunk is 10 blocks; with the RREQ forwards and grant blocks
	// interleaved the bound is ~2 chunks' worth. A store-and-forward
	// shared-queue switch would have accumulated an 8-deep incast here.
	chunkBlocks := 2 + (ChunkBytes+7)/8
	if st.MaxEgressBacklog > 3*chunkBlocks {
		t.Fatalf("max egress backlog %d blocks exceeds ~%d (zero-queuing violated)",
			st.MaxEgressBacklog, 3*chunkBlocks)
	}
	t.Logf("max egress backlog: %d blocks (chunk = %d blocks)", st.MaxEgressBacklog, chunkBlocks)
}

// TestSchedulerPairLimitHoldback: a burst of operations beyond X to the
// same destination is admitted gradually by the sender-side window; the
// switch must never reject a notification (the sender throttles first).
func TestSchedulerPairLimitHoldback(t *testing.T) {
	f := New(DefaultConfig(2))
	f.AttachMemory(1, fastMem())
	done := 0
	for i := 0; i < 20; i++ {
		f.Host(0).Read(1, 0, 64, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			done++
		})
	}
	f.Run()
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
	if rej := f.Switch().Stats().RejectedNotify; rej != 0 {
		t.Fatalf("switch rejected %d notifications despite sender window", rej)
	}
}

// TestGrantsNeverExceedDemand: total granted bytes equal the total demand
// exactly for a random mixed workload (conservation at the scheduler).
func TestGrantsNeverExceedDemand(t *testing.T) {
	const hosts = 5
	f := New(DefaultConfig(hosts + 1))
	f.AttachMemory(hosts, memctl.New(memctl.DefaultConfig()))
	rng := workload.NewRand(5)
	var demand int64
	ops := 0
	for i := 0; i < 60; i++ {
		h := rng.Intn(hosts)
		size := 8 * (1 + rng.Intn(32))
		if rng.Intn(2) == 0 {
			f.Host(h).Read(hosts, uint64(i)*512, size, nil)
			demand += int64(size)
		} else {
			f.Host(h).Write(hosts, uint64(i)*512, make([]byte, size), nil)
			demand += int64(size) + 8 // WREQ body carries the address
		}
		ops++
	}
	f.Run()
	grants, notifies, _, _ := f.Switch().Scheduler().Stats()
	if notifies != uint64(ops) {
		t.Fatalf("notifies = %d, want %d", notifies, ops)
	}
	// Each grant moves at most ChunkBytes; their sum must cover demand
	// exactly: ceil per message.
	if grants == 0 {
		t.Fatal("no grants issued")
	}
	st := f.Switch().Stats()
	if st.ChunksForward != grants {
		t.Fatalf("chunks forwarded %d != grants %d (lost or duplicated chunks)",
			st.ChunksForward, grants)
	}
}
