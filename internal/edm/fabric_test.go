package edm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/memctl"
	"repro/internal/sim"
)

// fastMem returns a zero-latency memory controller: Table 1 measures fabric
// latency excluding DRAM access time.
func fastMem() *memctl.Controller {
	cfg := memctl.DefaultConfig()
	cfg.Untimed = true
	return memctl.New(cfg)
}

// newTestbed builds the paper's 2-host testbed: port 0 compute, port 1
// memory.
func newTestbed(t *testing.T) *Fabric {
	t.Helper()
	f := New(DefaultConfig(2))
	f.AttachMemory(1, fastMem())
	return f
}

func TestReadRoundTrip(t *testing.T) {
	f := newTestbed(t)
	want := bytes.Repeat([]byte{0xab}, 64)
	if _, err := f.Host(1).Memory().Write(4096, want); err != nil {
		t.Fatal(err)
	}
	got, lat, err := f.ReadSync(0, 1, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read returned wrong data")
	}
	t.Logf("64B read fabric latency: %v", lat)
	// Paper Table 1: 299.52 ns for a 64 B read on the unloaded testbed.
	if lat < 250*sim.Nanosecond || lat > 400*sim.Nanosecond {
		t.Fatalf("read latency %v outside 250-400ns", lat)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	f := newTestbed(t)
	data := bytes.Repeat([]byte{0x5c}, 64)
	lat, err := f.WriteSync(0, 1, 8192, data)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Host(1).Memory().Read(8192, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("write not applied")
	}
	t.Logf("64B write fabric latency: %v", lat)
	// Paper Table 1: 296.96 ns for a 64 B write.
	if lat < 250*sim.Nanosecond || lat > 400*sim.Nanosecond {
		t.Fatalf("write latency %v outside 250-400ns", lat)
	}
}

func TestSmallReadIs8Bytes(t *testing.T) {
	// Reading a single pointer (8 B) — the paper's motivating small
	// message — must work and be no slower than a 64 B read.
	f := newTestbed(t)
	if _, err := f.Host(1).Memory().Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	got, lat, err := f.ReadSync(0, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 || got[0] != 1 {
		t.Fatalf("8B read returned %v", got)
	}
	if lat > 400*sim.Nanosecond {
		t.Fatalf("8B read latency %v", lat)
	}
}

func TestLargeChunkedRead(t *testing.T) {
	// 1 KB read = 16 chunks of 64 B, each individually granted.
	f := newTestbed(t)
	want := make([]byte, 1024)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if _, err := f.Host(1).Memory().Write(0, want); err != nil {
		t.Fatal(err)
	}
	got, lat, err := f.ReadSync(0, 1, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("1KB read mismatch")
	}
	grants, _, _, _ := f.Switch().Scheduler().Stats()
	if grants != 16 {
		t.Fatalf("grants = %d, want 16", grants)
	}
	t.Logf("1KB read latency: %v", lat)
}

func TestLargeChunkedWrite(t *testing.T) {
	f := newTestbed(t)
	data := make([]byte, 500)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := f.WriteSync(0, 1, 256, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Host(1).Memory().Read(256, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("chunked write mismatch")
	}
}

func TestRMWCompareAndSwap(t *testing.T) {
	f := newTestbed(t)
	if _, err := f.Host(1).Memory().Write(64, []byte{5, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// CAS(expected=5, new=9): succeeds.
	res, lat, err := f.RMWSync(0, 1, 64, memctl.OpCAS, 5, 9)
	if err != nil || res != 1 {
		t.Fatalf("CAS: res=%d err=%v", res, err)
	}
	got, _, _ := f.Host(1).Memory().Read(64, 8)
	if got[0] != 9 {
		t.Fatal("CAS did not store")
	}
	// Second CAS with stale expected fails.
	res, _, err = f.RMWSync(0, 1, 64, memctl.OpCAS, 5, 77)
	if err != nil || res != 0 {
		t.Fatalf("stale CAS: res=%d err=%v", res, err)
	}
	t.Logf("CAS latency: %v", lat)
	if lat > 450*sim.Nanosecond {
		t.Fatalf("CAS latency %v too high", lat)
	}
}

func TestFetchAdd(t *testing.T) {
	f := newTestbed(t)
	for i := 0; i < 3; i++ {
		res, _, err := f.RMWSync(0, 1, 128, memctl.OpFetchAdd, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res != uint64(i*10) {
			t.Fatalf("FAA %d returned %d", i, res)
		}
	}
}

func TestConcurrentReadsManyHosts(t *testing.T) {
	// 4 compute nodes all read from one memory node; every read completes
	// correctly (the scheduler serializes the shared egress).
	cfg := DefaultConfig(5)
	f := New(cfg)
	f.AttachMemory(4, fastMem())
	want := bytes.Repeat([]byte{0x77}, 64)
	if _, err := f.Host(4).Memory().Write(0, want); err != nil {
		t.Fatal(err)
	}
	results := make([][]byte, 4)
	for i := 0; i < 4; i++ {
		i := i
		f.Host(i).Read(4, 0, 64, func(d []byte, err error) {
			if err != nil {
				t.Errorf("host %d: %v", i, err)
			}
			results[i] = d
		})
	}
	f.Run()
	for i, r := range results {
		if !bytes.Equal(r, want) {
			t.Fatalf("host %d got wrong data", i)
		}
	}
}

func TestPipelinedReadsSameHost(t *testing.T) {
	// Multiple outstanding reads from one host respect the X=3 window but
	// all complete, in order per pair.
	f := newTestbed(t)
	mem := f.Host(1).Memory()
	for i := 0; i < 8; i++ {
		if _, err := mem.Write(uint64(i*64), bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		f.Host(0).Read(1, uint64(i*64), 64, func(d []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if d[0] != byte(i+1) {
				t.Errorf("read %d wrong data %d", i, d[0])
			}
			order = append(order, i)
		})
	}
	f.Run()
	if len(order) != 8 {
		t.Fatalf("completed %d of 8", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("reads completed out of order: %v", order)
		}
	}
}

func TestWritesAreInOrderPerPair(t *testing.T) {
	// Two writes to overlapping addresses from the same host must apply in
	// issue order (§3.1.1 property 5).
	f := newTestbed(t)
	f.Host(0).Write(1, 0, bytes.Repeat([]byte{1}, 128), nil)
	f.Host(0).Write(1, 0, bytes.Repeat([]byte{2}, 64), nil)
	f.Run()
	got, _, err := f.Host(1).Memory().Read(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if got[i] != 2 {
			t.Fatalf("byte %d = %d, want 2 (second write lost or reordered)", i, got[i])
		}
	}
	for i := 64; i < 128; i++ {
		if got[i] != 1 {
			t.Fatalf("byte %d = %d, want 1", i, got[i])
		}
	}
}

func TestReadTimeoutOnDisabledLink(t *testing.T) {
	f := New(DefaultConfig(2))
	f.AttachMemory(1, fastMem())
	f.DisableLink(1) // memory node unreachable
	var gotErr error
	done := false
	f.Host(0).Read(1, 0, 64, func(d []byte, err error) {
		gotErr, done = err, true
		if d != nil {
			t.Error("data returned on timeout")
		}
	})
	f.Run()
	if !done || !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("timeout path: done=%v err=%v", done, gotErr)
	}
	if f.Host(0).Stats().Timeouts != 1 {
		t.Fatal("timeout not counted")
	}
}

func TestReadToNonMemoryNode(t *testing.T) {
	f := New(DefaultConfig(3))
	f.AttachMemory(2, fastMem())
	var gotErr error
	f.Host(0).Read(1, 0, 64, func(d []byte, err error) { gotErr = err })
	f.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("read to compute node: %v", gotErr)
	}
}

func TestLinkCorruptionDetected(t *testing.T) {
	f := New(DefaultConfig(2))
	f.AttachMemory(1, fastMem())
	f.UpLink(0).CorruptOneIn(2) // heavy corruption on the request path
	var errs, oks int
	for i := 0; i < 4; i++ {
		f.Host(0).Read(1, uint64(i*64), 64, func(d []byte, err error) {
			if err != nil {
				errs++
			} else {
				oks++
			}
		})
	}
	f.Run()
	if errs == 0 {
		t.Fatal("no read failed despite corruption")
	}
	swErr := f.Switch().Stats().RxErrors
	if swErr == 0 {
		t.Fatal("switch did not detect corrupted blocks")
	}
}

func TestWriteReadBack(t *testing.T) {
	// Full workflow: write then read the same location remotely.
	f := newTestbed(t)
	data := []byte("hello, disaggregated world!")
	if _, err := f.WriteSync(0, 1, 1<<20, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.ReadSync(0, 1, 1<<20, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	// Two hosts each with memory, reading from each other concurrently.
	f := New(DefaultConfig(2))
	f.AttachMemory(0, fastMem())
	f.AttachMemory(1, fastMem())
	_, _ = f.Host(0).Memory().Write(0, bytes.Repeat([]byte{0xaa}, 64))
	_, _ = f.Host(1).Memory().Write(0, bytes.Repeat([]byte{0xbb}, 64))
	var got0, got1 []byte
	f.Host(0).Read(1, 0, 64, func(d []byte, err error) { got0 = d })
	f.Host(1).Read(0, 0, 64, func(d []byte, err error) { got1 = d })
	f.Run()
	if len(got0) != 64 || got0[0] != 0xbb {
		t.Fatal("host 0 read wrong")
	}
	if len(got1) != 64 || got1[0] != 0xaa {
		t.Fatal("host 1 read wrong")
	}
}

func TestStatsAccounting(t *testing.T) {
	f := newTestbed(t)
	_, _, _ = f.ReadSync(0, 1, 0, 64)
	_, _ = f.WriteSync(0, 1, 0, make([]byte, 64))
	hs := f.Host(0).Stats()
	if hs.ReadsIssued != 1 || hs.WritesIssued != 1 || hs.ReadsDone != 1 {
		t.Fatalf("host stats: %+v", hs)
	}
	ss := f.Switch().Stats()
	// Read: 1 RRES chunk. Write: body is 8 B address + 64 B data = 72 B,
	// i.e. two 64 B chunks. Total 3 chunks forwarded, 3 grants.
	if ss.RequestsRX != 1 || ss.NotifiesRX != 1 || ss.ChunksForward != 3 || ss.GrantsTX != 3 {
		t.Fatalf("switch stats: %+v", ss)
	}
	ms := f.Host(1).Stats()
	if ms.WritesDone != 1 {
		t.Fatalf("memory stats: %+v", ms)
	}
}
