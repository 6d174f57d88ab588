// Benchmarks for the cluster client's routed path. Run with:
//
//	go test -run '^$' -bench ClusterRoundTrip -benchmem ./internal/cluster
//
// Each sub-benchmark is one closed-loop 64 B op through fanOut, the node
// clients and their loopback servers, and back through subOp.done and
// finish; the steady state allocates nothing.
package cluster

import (
	"testing"

	"repro/internal/memctl"
)

// BenchmarkClusterRoundTrip measures one routed op of each kind over four
// loopback nodes: a read goes to the extent's primary, a write to both
// replicas, an RMW to the primary and its result through to the mirror.
// Successive ops walk the extents, so every node serves as primary.
func BenchmarkClusterRoundTrip(b *testing.B) {
	const size = 64
	cc, _ := newTestCluster(b, 4, Config{Seed: 42})
	extents := uint64(cc.Map().Extents())
	addrOf := func(i int) uint64 { return uint64(i) % extents * cc.ExtentBytes() }
	// The callbacks are bound once, so the loop allocates nothing of its
	// own: any allocs/op come from the routed path.
	done := make(chan error, 1)
	readCB := func(_ []byte, err error) { done <- err }
	writeCB := func(err error) { done <- err }
	rmwCB := func(_ uint64, err error) { done <- err }
	data := make([]byte, size)
	args := []uint64{1}
	for _, bc := range []struct {
		name  string
		issue func(addr uint64) error
	}{
		{"read", func(addr uint64) error { return cc.Read(addr, size, readCB) }},
		{"write", func(addr uint64) error { return cc.Write(addr, data, writeCB) }},
		{"rmw", func(addr uint64) error { return cc.RMW(addr, memctl.OpFetchAdd, args, rmwCB) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			op := func(i int) {
				if err := bc.issue(addrOf(i)); err != nil {
					b.Fatal(err)
				}
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			// Prime the pools and every node's call slots before timing.
			for i := 0; i < 1024; i++ {
				op(i)
			}
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		})
	}
}
