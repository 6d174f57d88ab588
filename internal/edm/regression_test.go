package edm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/memctl"
	"repro/internal/workload"
)

// TestConcurrentReadsGetOwnData is the regression test for a circuit-order
// bug: the memory node must emit chunks in exactly grant-issue order or the
// switch's per-ingress circuit FIFO forwards one requester's data to
// another (message ids collide across hosts, so the wrong host accepts it).
// Every reader gets distinct bytes; any cross-delivery fails the test.
func TestConcurrentReadsGetOwnData(t *testing.T) {
	const readers = 6
	cfg := DefaultConfig(readers + 1)
	f := New(cfg)
	// Realistic DRAM timing matters: the bug only bites when reads spend
	// variable time in DRAM while later grants pile up.
	f.AttachMemory(readers, memctl.New(memctl.DefaultConfig()))
	mem := f.Host(readers).Memory()
	for i := 0; i < readers; i++ {
		if _, err := mem.Write(uint64(i)*4096, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 10
	done := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < readers; i++ {
			i := i
			f.Host(i).Read(readers, uint64(i)*4096, 64, func(d []byte, err error) {
				if err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
				for _, b := range d {
					if b != byte(i+1) {
						t.Errorf("reader %d received byte %d: cross-circuit delivery", i, b)
						return
					}
				}
				done++
			})
		}
		f.Run()
	}
	if done != readers*rounds {
		t.Fatalf("completed %d of %d", done, readers*rounds)
	}
}

// TestSpinlockMutualExclusion drives the full lock protocol from the locks
// example: N nodes contend via remote CAS for a lock word, increment a
// shared counter read-modify-write style in their critical sections, and
// release via swap. Lost updates mean mutual exclusion (and hence EDM's
// ordering or atomicity) is broken.
func TestSpinlockMutualExclusion(t *testing.T) {
	const (
		nodes      = 4
		increments = 5
		memNode    = nodes
		lockAddr   = 0
		ctrAddr    = 64
	)
	f := New(DefaultConfig(nodes + 1))
	f.AttachMemory(memNode, memctl.New(memctl.DefaultConfig()))

	var acquire func(n, left int)
	critical := func(n, left int) {
		f.Host(n).Read(memNode, ctrAddr, 8, func(data []byte, err error) {
			if err != nil {
				t.Errorf("node %d read: %v", n, err)
				return
			}
			v := binary.LittleEndian.Uint64(data)
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, v+1)
			f.Host(n).Write(memNode, ctrAddr, buf, func(err error) {
				if err != nil {
					t.Errorf("node %d write: %v", n, err)
					return
				}
				f.Host(n).RMW(memNode, lockAddr, memctl.OpSwap, []uint64{0}, func(_ []byte, err error) {
					if err != nil {
						t.Errorf("node %d unlock: %v", n, err)
						return
					}
					if left > 1 {
						acquire(n, left-1)
					}
				})
			})
		})
	}
	acquire = func(n, left int) {
		f.Host(n).RMW(memNode, lockAddr, memctl.OpCAS, []uint64{0, uint64(n) + 1},
			func(res []byte, err error) {
				if err != nil {
					t.Errorf("node %d cas: %v", n, err)
					return
				}
				if res[0] == 1 {
					critical(n, left)
					return
				}
				acquire(n, left)
			})
	}
	for n := 0; n < nodes; n++ {
		acquire(n, increments)
	}
	f.Run()
	data, _, err := f.Host(memNode).Memory().Read(ctrAddr, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := binary.LittleEndian.Uint64(data)
	if got != nodes*increments {
		t.Fatalf("counter = %d, want %d: mutual exclusion violated", got, nodes*increments)
	}
}

// TestOutOfRangeReadReturnsZeros: a read beyond the memory size cannot be
// NACKed by the fabric; the memory node responds with zero-filled data of
// the demanded size so the switch's circuit accounting stays aligned.
func TestOutOfRangeReadReturnsZeros(t *testing.T) {
	f := New(DefaultConfig(2))
	f.AttachMemory(1, fastMem())
	size := f.Host(1).Memory().Size()
	data, _, err := f.ReadSync(0, 1, size+4096, 64)
	if err != nil {
		t.Fatalf("out-of-range read: %v", err)
	}
	if len(data) != 64 {
		t.Fatalf("got %d bytes", len(data))
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("non-zero bytes for out-of-range read")
		}
	}
	// A good read right after must still route correctly.
	if _, err := f.Host(1).Memory().Write(0, bytes.Repeat([]byte{0xee}, 64)); err != nil {
		t.Fatal(err)
	}
	good, _, err := f.ReadSync(0, 1, 0, 64)
	if err != nil || good[0] != 0xee {
		t.Fatalf("subsequent read broken: %v", err)
	}
}

// TestRandomizedMixedTraffic floods the fabric with a random mixture of
// reads, writes and RMWs from several hosts and checks that every
// operation completes with its own data (per-op tagged addresses).
func TestRandomizedMixedTraffic(t *testing.T) {
	const hosts = 4
	cfg := DefaultConfig(hosts + 1)
	f := New(cfg)
	f.AttachMemory(hosts, memctl.New(memctl.DefaultConfig()))
	mem := f.Host(hosts).Memory()

	rng := workload.NewRand(77)
	type expect struct {
		host int
		addr uint64
		val  byte
		size int
	}
	var pending []expect
	for i := 0; i < 120; i++ {
		h := rng.Intn(hosts)
		addr := uint64(i) * 256
		val := byte(rng.Intn(255) + 1)
		size := 8 << rng.Intn(5) // 8..128
		switch rng.Intn(3) {
		case 0: // seeded read
			if _, err := mem.Write(addr, bytes.Repeat([]byte{val}, size)); err != nil {
				t.Fatal(err)
			}
			e := expect{h, addr, val, size}
			f.Host(h).Read(hosts, addr, size, func(d []byte, err error) {
				if err != nil {
					t.Errorf("read %v: %v", e, err)
					return
				}
				for _, b := range d {
					if b != e.val {
						t.Errorf("read %v got byte %d", e, b)
						return
					}
				}
			})
		case 1: // write then verify at drain
			e := expect{h, addr, val, size}
			pending = append(pending, e)
			f.Host(h).Write(hosts, addr, bytes.Repeat([]byte{val}, size), func(err error) {
				if err != nil {
					t.Errorf("write %v: %v", e, err)
				}
			})
		case 2: // fetch-add on a fresh word
			f.Host(h).RMW(hosts, addr, memctl.OpFetchAdd, []uint64{uint64(val)}, func(d []byte, err error) {
				if err != nil {
					t.Errorf("rmw: %v", err)
				}
			})
		}
	}
	f.Run()
	for _, e := range pending {
		got, _, err := mem.Read(e.addr, e.size)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != e.val {
				t.Errorf("write %v not applied correctly (got %d)", e, b)
				break
			}
		}
	}
	hs := f.Host(0).Stats()
	if hs.Timeouts != 0 {
		t.Errorf("timeouts under mixed traffic: %d", hs.Timeouts)
	}
}

// TestSwitchDropsRequestNamingAnotherSource forges, on port 0, an RREQ whose
// header names port 2 as its source: a header that corruption damaged into
// another valid node's ID. The requester is the ingress port, so the switch
// must drop it as malformed instead of granting an RRES toward port 2, which
// never asked.
func TestSwitchDropsRequestNamingAnotherSource(t *testing.T) {
	f := New(DefaultConfig(3))
	f.AttachMemory(1, fastMem())
	m := Message{Kind: KindRREQ, Src: 2, Dst: 1, ID: 9, Len: 64}
	w, err := m.MarshalRREQ()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Encode() {
		f.UpLink(0).Send(b)
	}
	f.Run()
	ss := f.Switch().Stats()
	if ss.RxErrors != 1 || ss.RequestsRX != 0 || ss.GrantsTX != 0 || ss.RejectedNotify != 0 {
		t.Fatalf("switch stats %+v: want the request dropped as one RxError, no grant", ss)
	}
	if got := f.DownLink(2).Stats().Sent; got != 0 {
		t.Fatalf("host 2 received %d blocks for a request it never sent", got)
	}
}
