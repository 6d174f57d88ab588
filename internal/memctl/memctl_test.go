package memctl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/workload"
)

func newCtl(t *testing.T) *Controller {
	t.Helper()
	return New(DefaultConfig())
}

func TestReadWriteRoundTrip(t *testing.T) {
	c := newCtl(t)
	data := bytes.Repeat([]byte{0xa5}, 256)
	if _, err := c.Write(4096, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Read(4096, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
}

func TestReadCrossesPages(t *testing.T) {
	c := newCtl(t)
	data := make([]byte, 10000) // spans 3 internal pages
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := c.Write(100, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Read(100, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page read mismatch")
	}
}

func TestZeroFill(t *testing.T) {
	c := newCtl(t)
	got, _, err := c.Read(1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched memory not zero")
		}
	}
}

func TestBoundsChecking(t *testing.T) {
	c := newCtl(t)
	if _, _, err := c.Read(c.Size(), 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read at size: %v", err)
	}
	if _, _, err := c.Read(c.Size()-4, 8); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if _, err := c.Write(c.Size()-1, []byte{1, 2}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write past end: %v", err)
	}
	if _, _, err := c.Read(0, 0); !errors.Is(err, ErrBadLength) {
		t.Errorf("zero-length read: %v", err)
	}
}

func TestRowBufferTiming(t *testing.T) {
	c := newCtl(t)
	// First access: row miss. Second access to the same row: hit, faster.
	_, t1, err := c.Read(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := c.Read(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if t2 >= t1 {
		t.Fatalf("row hit (%v) not faster than miss (%v)", t2, t1)
	}
	_, hits := c.Stats()
	if hits != 1 {
		t.Fatalf("rowHits = %d, want 1", hits)
	}
}

func TestRandomAccessLatencyNearPaper(t *testing.T) {
	// The paper's Figure 7 uses ~82 ns local DDR4 latency. A row-miss
	// 64 B access should land in 70–100 ns with the default config.
	c := newCtl(t)
	_, lat, err := c.Read(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 70*sim.Nanosecond || lat > 100*sim.Nanosecond {
		t.Fatalf("cold 64B access latency %v outside 70-100ns", lat)
	}
}

func TestLargeReadPipelinesBursts(t *testing.T) {
	c := newCtl(t)
	_, t64, _ := c.Read(0, 64)
	c2 := newCtl(t)
	_, t1k, _ := c2.Read(0, 1024)
	// 1 KB = 16 bursts; must cost much less than 16 independent accesses.
	if t1k >= 16*t64 {
		t.Fatalf("1KB read %v not pipelined vs 16x64B %v", t1k, 16*t64)
	}
	if t1k <= t64 {
		t.Fatalf("1KB read %v not slower than 64B %v", t1k, t64)
	}
}

func TestCAS(t *testing.T) {
	c := newCtl(t)
	if _, err := c.Write(64, []byte{42, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Failed CAS: expected doesn't match.
	res, _, err := c.RMW(64, OpCAS, 7, 99)
	if err != nil || res != 0 {
		t.Fatalf("CAS mismatch: res=%d err=%v", res, err)
	}
	// Successful CAS.
	res, _, err = c.RMW(64, OpCAS, 42, 99)
	if err != nil || res != 1 {
		t.Fatalf("CAS match: res=%d err=%v", res, err)
	}
	got, _, _ := c.Read(64, 8)
	if got[0] != 99 {
		t.Fatalf("CAS did not write: %v", got)
	}
}

func TestFetchAddAndFriends(t *testing.T) {
	c := newCtl(t)
	cases := []struct {
		op        RMWOp
		arg       uint64
		wantRes   uint64 // previous value (initial 10)
		wantAfter uint64
	}{
		{OpFetchAdd, 5, 10, 15},
		{OpSwap, 77, 15, 77},
		{OpAnd, 0x0f, 77, 77 & 0x0f},
		{OpOr, 0xf0, 13, 13 | 0xf0},
		{OpXor, 0xff, 253, 253 ^ 0xff},
		{OpMin, 1, 2, 1},
		{OpMax, 100, 1, 100},
	}
	if _, err := c.Write(0, []byte{10, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		res, _, err := c.RMW(0, tc.op, tc.arg)
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		if res != tc.wantRes {
			t.Errorf("%v result = %d, want %d", tc.op, res, tc.wantRes)
		}
		got, _, _ := c.Read(0, 8)
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(got[i])
		}
		if v != tc.wantAfter {
			t.Errorf("%v stored %d, want %d", tc.op, v, tc.wantAfter)
		}
	}
}

func TestRMWSignedMinMax(t *testing.T) {
	c := newCtl(t)
	neg := uint64(0xffffffffffffffff) // -1
	if _, _, err := c.RMW(8, OpMin, neg); err != nil {
		t.Fatal(err)
	}
	got, _, _ := c.Read(8, 8)
	if got[0] != 0xff {
		t.Fatal("signed min did not store -1 over 0")
	}
}

func TestRMWErrors(t *testing.T) {
	c := newCtl(t)
	if _, _, err := c.RMW(3, OpCAS, 1, 2); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned: %v", err)
	}
	if _, _, err := c.RMW(0, RMWOp(200), 1); !errors.Is(err, ErrBadOpcode) {
		t.Errorf("bad opcode: %v", err)
	}
	if _, _, err := c.RMW(0, OpCAS, 1); err == nil {
		t.Error("CAS with one arg accepted")
	}
	if _, _, err := c.RMW(c.Size(), OpSwap, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out of range RMW: %v", err)
	}
}

func TestRMWArgCount(t *testing.T) {
	if n, err := RMWArgCount(OpCAS); err != nil || n != 2 {
		t.Fatalf("CAS args = %d, %v", n, err)
	}
	if n, err := RMWArgCount(OpFetchAdd); err != nil || n != 1 {
		t.Fatalf("FAA args = %d, %v", n, err)
	}
	if _, err := RMWArgCount(RMWOp(0)); err == nil {
		t.Fatal("opcode 0 accepted")
	}
}

// Property: write-then-read returns exactly the written bytes for arbitrary
// in-range addresses and sizes.
func TestRoundTripProperty(t *testing.T) {
	c := New(Config{
		Size: 1 << 22, Banks: 4, RowBytes: 2048,
		TRP: 1, TRCD: 1, TCAS: 1, TBurst: 1, Overhead: 1,
	})
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			data = []byte{1}
		}
		a := uint64(addr) % (c.Size() - uint64(len(data)))
		if _, err := c.Write(a, data); err != nil {
			return false
		}
		got, _, err := c.Read(a, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: latency is always positive and monotone-ish in access size for
// same-start reads on a fresh controller.
func TestLatencyMonotoneProperty(t *testing.T) {
	f := func(k uint8) bool {
		n1 := int(k)%512 + 1
		n2 := n1 + 512
		c1 := New(DefaultConfig())
		_, t1, err1 := c1.Read(0, n1)
		c2 := New(DefaultConfig())
		_, t2, err2 := c2.Read(0, n2)
		return err1 == nil && err2 == nil && t1 > 0 && t2 > t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// accessTimeOracle is the per-burst walk the closed-form accessTime
// replaced, kept only as the differential test's reference.
func (c *Controller) accessTimeOracle(addr uint64, n int) sim.Time {
	total := c.cfg.Overhead
	for off := addr &^ (BurstBytes - 1); off < addr+uint64(n); off += BurstBytes {
		bank := int((off / c.cfg.RowBytes) % uint64(c.cfg.Banks))
		row := int64(off / (c.cfg.RowBytes * uint64(c.cfg.Banks)))
		c.accesses++
		if c.openRow[bank] == row {
			c.rowHits++
			total += c.cfg.TCAS + c.cfg.TBurst
		} else {
			if c.openRow[bank] >= 0 {
				total += c.cfg.TRP
			}
			total += c.cfg.TRCD + c.cfg.TCAS + c.cfg.TBurst
			c.openRow[bank] = row
		}
		if off > addr&^(BurstBytes-1) {
			total -= c.cfg.TCAS
		}
	}
	return total
}

// firstOpenRowDiff reports the first bank whose open row differs between c
// and o, or -1.
func (c *Controller) firstOpenRowDiff(o *Controller) int {
	for b, row := range c.openRow {
		if row != o.openRow[b] {
			return b
		}
	}
	return -1
}

// The closed form must agree with the per-burst walk on the returned time,
// the counters and every bank's open row after each call — for row sizes
// that are and are not a multiple of the burst, unaligned addresses and
// accesses spanning many rows of the same bank.
func TestAccessTimeMatchesPerBurstOracle(t *testing.T) {
	const calls = 100_000
	for _, rowBytes := range []uint64{64, 96, 1000, 4096, 8192} {
		cfg := DefaultConfig()
		cfg.Size, cfg.RowBytes = 1<<24, rowBytes
		got, want := New(cfg), New(cfg)
		rng := workload.NewRand(rowBytes)
		for i := 0; i < calls; i++ {
			n := 1 + rng.Intn(40_000)
			if i%4 == 0 {
				n = 1 + rng.Intn(256) // small accesses: row hits dominate
			}
			addr := rng.Uint64() % (cfg.Size - uint64(n))
			if i%8 == 1 {
				addr &^= BurstBytes - 1
			}
			tg, tw := got.accessTime(addr, n), want.accessTimeOracle(addr, n)
			if tg != tw {
				t.Fatalf("RowBytes=%d call %d addr=%#x n=%d: time %v, oracle %v", rowBytes, i, addr, n, tg, tw)
			}
			ga, gh := got.Stats()
			wa, wh := want.Stats()
			if ga != wa || gh != wh {
				t.Fatalf("RowBytes=%d call %d addr=%#x n=%d: stats %d/%d, oracle %d/%d", rowBytes, i, addr, n, ga, gh, wa, wh)
			}
			if b := got.firstOpenRowDiff(want); b >= 0 {
				t.Fatalf("RowBytes=%d call %d addr=%#x n=%d: bank %d's open row differs from the oracle's", rowBytes, i, addr, n, b)
			}
		}
	}
}

// Never-written pages read as zero wherever they sit in the page table,
// including next to written pages and across a chunk boundary.
func TestPageTableZeroFill(t *testing.T) {
	c := New(Config{Size: 3*chunkBytes + 100, Banks: 4, RowBytes: 2048, TBurst: 1})
	if _, err := c.Write(chunkBytes-8, bytes.Repeat([]byte{0xee}, 16)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		addr uint64
		n    int
	}{{0, 4096}, {chunkBytes - 5000, 4992}, {chunkBytes + 8, 9000}, {2*chunkBytes - 100, 200}, {3 * chunkBytes, 100}} {
		got, _, err := c.Read(r.addr, r.n)
		if err != nil {
			t.Fatalf("read %#x+%d: %v", r.addr, r.n, err)
		}
		if !bytes.Equal(got, make([]byte, r.n)) {
			t.Fatalf("read %#x+%d of never-written memory is not zero", r.addr, r.n)
		}
	}
	got, _, err := c.Read(chunkBytes-8, 16)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xee}, 16)) {
		t.Fatalf("write straddling a chunk boundary read back %x, %v", got, err)
	}
}

// A controller whose size is not a multiple of the chunk (or of the page)
// serves its last partial page up to the final byte and not beyond, and an
// RMW on the final word lands there.
func TestPageTableLastPartialPage(t *testing.T) {
	const size = pageBytes*chunkPages + 3*pageBytes + 24
	c := New(Config{Size: size, Banks: 4, RowBytes: 2048, TBurst: 1})
	tail := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30}
	if _, err := c.Write(size-uint64(len(tail)), tail); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Read(size-uint64(len(tail)), len(tail))
	if err != nil || !bytes.Equal(got, tail) {
		t.Fatalf("tail read back %x, %v", got, err)
	}
	if _, err := c.Write(size-4, make([]byte, 5)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past the end: %v, want ErrOutOfRange", err)
	}
	if _, _, err := c.Read(size, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read at the end: %v, want ErrOutOfRange", err)
	}
	old, _, err := c.RMW(size-WordBytes, OpFetchAdd, 5)
	if err != nil || old != binary.LittleEndian.Uint64(tail[len(tail)-WordBytes:]) {
		t.Fatalf("RMW on the final word: old %#x, %v", old, err)
	}
	word, _, err := c.Read(size-WordBytes, WordBytes)
	if err != nil || binary.LittleEndian.Uint64(word) != old+5 {
		t.Fatalf("final word after fetch-add: %x, %v", word, err)
	}
	if _, _, err := c.RMW(size, OpFetchAdd, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("RMW past the end: %v, want ErrOutOfRange", err)
	}
}

var sinkTime sim.Time

// BenchmarkAccessTime is the timing model alone: one 64 B read (one burst,
// usually a row miss) and one 16 KiB access (256 bursts over 2-3 rows).
func BenchmarkAccessTime(b *testing.B) {
	for _, n := range []int{64, 16384} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			c := New(DefaultConfig())
			rng := workload.NewRand(1)
			addrs := make([]uint64, 1024)
			for i := range addrs {
				addrs[i] = rng.Uint64() % (c.Size() - uint64(n)) &^ 7
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkTime += c.accessTime(addrs[i%len(addrs)], n)
			}
		})
	}
}
