package cluster

import (
	"bytes"
	"testing"

	"repro/internal/rmem"
	"repro/internal/wire"
	"repro/internal/workload"
)

// replayNode connects a client to a fresh in-process 1 MiB node over a
// loopback charging clock.
func replayNode(t testing.TB, clock *wire.VirtualClock) *rmem.Client {
	t.Helper()
	srv, err := rmem.NewServer(rmem.ServerConfig{Geometry: rmem.Geometry{SlabBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	lb := wire.NewLoopback(wire.LoopbackConfig{Clock: clock})
	cl := rmem.NewClient(lb.ClientPipe(), rmem.ClientConfig{Window: 4})
	lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
	lb.BindClient(cl.Deliver)
	if err := cl.Connect(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// replayCluster fronts n replayNodes with a cluster client whose extents
// are small enough that replayOps straddles them.
func replayCluster(t testing.TB, clock *wire.VirtualClock, n int) *Client {
	t.Helper()
	nodes := make([]*rmem.Client, n)
	for i := range nodes {
		nodes[i] = replayNode(t, clock)
	}
	cc, err := New(nodes, Config{Seed: 1, ExtentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// replayOps draws n ops over a small region, so reads land on written and
// unwritten words alike, with sizes that end mid-word.
func replayOps(seed uint64, n int) ([]workload.Op, []uint64) {
	st := workload.NewPartition(seed).Stream("ops")
	ops := make([]workload.Op, n)
	addrs := make([]uint64, n)
	for i := range ops {
		ops[i] = workload.Op{Index: i, Size: 1 + int(st.Uint64()%300), Read: st.Uint64()%2 == 0}
		addrs[i] = (st.Uint64() % (64 << 10)) &^ 7
	}
	return ops, addrs
}

// TestReplaySameThroughBothClients runs one seeded op list through the
// replay over a single loopback client and over a 4-node loopback cluster:
// as rmem.Memory they must be indistinguishable in outcome and in data.
func TestReplaySameThroughBothClients(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64
		n    int
	}{{"short", 1, 50}, {"mixed", 7, 2000}} {
		t.Run(tc.name, func(t *testing.T) {
			ops, addrs := replayOps(tc.seed, tc.n)
			var images [2][]byte
			var outcomes [2][]rmem.OpResult
			for k, mk := range []func(*wire.VirtualClock) rmem.Memory{
				func(c *wire.VirtualClock) rmem.Memory { return replayNode(t, c) },
				func(c *wire.VirtualClock) rmem.Memory { return replayCluster(t, c, 4) },
			} {
				clock := wire.NewVirtualClock()
				mem := mk(clock)
				outcomes[k] = rmem.Replay(mem, ops, addrs, rmem.ReplayConfig{Window: 1, Now: clock.Now})
				for a := uint64(0); a < 66<<10; a += 2048 {
					chunk, err := rmem.ReadSync(mem, a, 2048)
					if err != nil {
						t.Fatal(err)
					}
					images[k] = append(images[k], chunk...)
				}
			}
			for i := range ops {
				if a, b := outcomes[0][i], outcomes[1][i]; a.Err != nil || b.Err != nil || a.Shed || b.Shed {
					t.Fatalf("op %d (%+v @%#x): single %+v, cluster %+v", i, ops[i], addrs[i], a, b)
				}
				if outcomes[0][i].Latency <= 0 || outcomes[1][i].Latency < outcomes[0][i].Latency {
					t.Fatalf("op %d: latency single %v cluster %v", i, outcomes[0][i].Latency, outcomes[1][i].Latency)
				}
			}
			if !bytes.Equal(images[0], images[1]) {
				t.Fatal("the two memories hold different data after the same replay")
			}
			if bytes.Equal(images[0], make([]byte, len(images[0]))) {
				t.Fatal("replay wrote nothing")
			}
		})
	}
}
