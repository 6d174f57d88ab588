package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/rmem"
	"repro/internal/wire"
)

// TestClusterNewGeometry pins New's rules for the cluster's geometry: each
// case connects one node per slab size and checks the address space and
// extent size the client adopts, or the error it refuses with.
func TestClusterNewGeometry(t *testing.T) {
	const mib = 1 << 20
	cases := []struct {
		name   string
		slabs  []uint64
		cfg    Config
		size   uint64 // the adopted Size and ExtentBytes when no error is wanted
		extent uint64
		err    error // a sentinel the error wraps; nil with fails: any error
		fails  bool
	}{
		{name: "one node", slabs: []uint64{4 * mib}, cfg: Config{ExtentBytes: testExtentBytes},
			err: ErrTooFewNodes, fails: true},
		{name: "extent not a multiple of 8", slabs: []uint64{4 * mib, 4 * mib}, cfg: Config{ExtentBytes: 64<<10 + 4},
			fails: true},
		{name: "default extent", slabs: []uint64{4 * mib, 4 * mib}, cfg: Config{},
			size: 4 * mib, extent: DefaultExtentBytes},
		{name: "size from the smallest slab", slabs: []uint64{4 * mib, 3*mib + 100<<10, 8 * mib},
			cfg: Config{ExtentBytes: testExtentBytes}, size: 3*mib + 64<<10, extent: testExtentBytes},
		{name: "size rounded down", slabs: []uint64{4 * mib, 4 * mib},
			cfg: Config{Size: 4*mib + 1000, ExtentBytes: testExtentBytes}, size: 4 * mib, extent: testExtentBytes},
		{name: "below one extent", slabs: []uint64{4 * mib, 4 * mib},
			cfg: Config{Size: testExtentBytes - 8, ExtentBytes: testExtentBytes}, fails: true},
		{name: "size above a slab", slabs: []uint64{8 * mib, 4 * mib},
			cfg: Config{Size: 8 * mib, ExtentBytes: testExtentBytes}, fails: true},
	}
	retry := wire.ConnConfig{RetryTimeout: time.Millisecond, MaxRetries: 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clients := make([]*rmem.Client, len(tc.slabs))
			for i, slab := range tc.slabs {
				clients[i] = newTestNode(t, slab, retry).cl
			}
			cc, err := New(clients, tc.cfg)
			if tc.fails {
				if err == nil {
					cc.Close()
					t.Fatalf("New = size %d extent %d, want an error", cc.Size(), cc.ExtentBytes())
				}
				if tc.err != nil && !errors.Is(err, tc.err) {
					t.Fatalf("New: %v, want %v", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			if cc.Size() != tc.size || cc.Map().Size() != tc.size {
				t.Fatalf("size %d (map %d), want %d", cc.Size(), cc.Map().Size(), tc.size)
			}
			if cc.ExtentBytes() != tc.extent || cc.Map().ExtentBytes() != tc.extent {
				t.Fatalf("extent %d (map %d), want %d", cc.ExtentBytes(), cc.Map().ExtentBytes(), tc.extent)
			}
		})
	}
}
