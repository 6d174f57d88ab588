// Concurrency stress for the sharded server. Run with -race: the point is to
// drive every shard-lock path (single-shard RMW, spanning reads/writes,
// overlapping and disjoint ranges) from enough concurrent sessions that the
// race detector sees any unguarded slab access.
package rmem

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/memctl"
	"repro/internal/wire"
)

// stressPair builds n independent loopback sessions against one server.
func stressPair(t *testing.T, srv *Server, n, window int) []*Client {
	t.Helper()
	clients := make([]*Client, n)
	for i := range clients {
		lb := wire.NewLoopback(wire.LoopbackConfig{})
		c := NewClient(lb.ClientPipe(), ClientConfig{Window: window,
			Retry: wire.ConnConfig{RetryTimeout: time.Second, MaxRetries: 3}})
		lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
		lb.BindClient(c.Deliver)
		if err := c.Connect(); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	return clients
}

// TestShardedServerConcurrentSessions hammers one sharded server from 8
// concurrent sessions: half fetch-add the same counter word (overlapping —
// all contend on one shard and the final sum proves every RMW was atomic and
// exactly-once), half own disjoint ranges (write + read-back proves shards
// do not bleed into each other) and issue reads spanning a shard boundary
// (the piecewise multi-shard lock path).
func TestShardedServerConcurrentSessions(t *testing.T) {
	const (
		sessions = 8
		opsPer   = 300
		slab     = 1 << 22
	)
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: slab}})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Shards() < 2 {
		t.Fatalf("server built with %d shards, want the sharded default", srv.Shards())
	}
	clients := stressPair(t, srv, sessions, 32)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	const counterAddr = 0
	// A spanning read straddling the first shard boundary (shards are
	// slab/DefaultShards rounded up to 4 KiB, so slab/16 sits on or past it).
	const spanAddr = slab/DefaultShards - 512

	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			if i < sessions/2 {
				// Overlapping: all four sessions bump one word.
				for n := 0; n < opsPer; n++ {
					if _, err := c.RMWSync(counterAddr, memctl.OpFetchAdd, 1); err != nil {
						t.Errorf("session %d fetch-add: %v", i, err)
						return
					}
				}
				return
			}
			// Disjoint: each session owns a private 64 KiB range in the
			// upper half of the slab.
			base := uint64(slab/2) + uint64(i)*(1<<16)
			buf := make([]byte, 128)
			for n := 0; n < opsPer; n++ {
				for j := range buf {
					buf[j] = byte(i*31 + n + j)
				}
				addr := base + uint64(n%64)*128
				if err := c.WriteSync(addr, buf); err != nil {
					t.Errorf("session %d write: %v", i, err)
					return
				}
				got, err := c.ReadSync(addr, len(buf))
				if err != nil {
					t.Errorf("session %d read: %v", i, err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("session %d: read-back mismatch at %#x", i, addr)
					return
				}
				if n%16 == 0 {
					if _, err := c.ReadSync(spanAddr, 1024); err != nil {
						t.Errorf("session %d spanning read: %v", i, err)
						return
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	got, err := clients[0].RMWSync(counterAddr, memctl.OpFetchAdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(sessions / 2 * opsPer); got != want {
		t.Fatalf("shared counter = %d, want %d (lost or duplicated RMWs)", got, want)
	}
}
