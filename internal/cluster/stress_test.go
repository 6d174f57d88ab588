package cluster

import (
	"sync"
	"testing"

	"repro/internal/memctl"
	"repro/internal/rmem"
)

// TestClusterStress drives 8 concurrent sessions over a 4-node cluster:
// every session hammers the same shared counters with RMWs (cross-session
// contention on the primaries and their write-through mirrors) while also
// doing private read/write traffic. Run under -race this exercises the
// pooled fan-out records, the route table swap, and the per-node clients
// concurrently.
func TestClusterStress(t *testing.T) {
	const (
		sessions = 8
		addsEach = 100
		counters = 4
	)
	cc, _ := newTestCluster(t, 4, Config{Seed: 7})
	// Shared counters spread over distinct extents.
	shared := make([]uint64, counters)
	for i := range shared {
		shared[i] = uint64(i) * 3 * testExtentBytes
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Private range: far from the shared counters, unique per session.
			private := uint64(40*testExtentBytes) + uint64(s)*4096
			buf := make([]byte, 512)
			for i := range buf {
				buf[i] = byte(s + i)
			}
			for i := 0; i < addsEach; i++ {
				if _, err := rmem.RMWSync(cc, shared[i%counters], memctl.OpFetchAdd, 1); err != nil {
					errs <- err
					return
				}
				if i%8 != 0 {
					continue
				}
				if err := rmem.WriteSync(cc, private, buf); err != nil {
					errs <- err
					return
				}
				if _, err := rmem.ReadSync(cc, private, len(buf)); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("stress op failed: %v", err)
	}
	// Each counter received sessions*addsEach/counters adds; the primary is
	// authoritative (concurrent mirror write-throughs may race each other,
	// but the primary's RMW stream is serialized by the node).
	want := uint64(sessions * addsEach / counters)
	for i, addr := range shared {
		got, err := rmem.RMWSync(cc, addr, memctl.OpFetchAdd, 0)
		if err != nil {
			t.Fatalf("counter %d read: %v", i, err)
		}
		if got != want {
			t.Fatalf("counter %d = %d, want %d (lost RMWs)", i, got, want)
		}
	}
}
