package memctl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/workload"
)

const chunkBytes = pageBytes * chunkPages

// controllerModel replays a byte script against a Controller and a flat
// []byte of the same size, which is what the two-level page table must be
// indistinguishable from: every write lands at its address, everything
// else reads as zero, out-of-range accesses fail and change nothing.
type controllerModel struct {
	t    testing.TB
	c    *Controller
	flat []byte
	buf  []byte
}

// modelFlat backs every model's flat reference in turn (tests using it do
// not run in parallel): clearing 2 MiB is much cheaper per fuzz input than
// allocating it.
var modelFlat = make([]byte, chunkBytes+5*pageBytes/2+2*255+1)

// newControllerModel sizes the controller from b: always odd, so the last
// page is partial, and past the first chunk boundary.
func newControllerModel(t testing.TB, b byte) *controllerModel {
	size := chunkBytes + 5*pageBytes/2 + 2*uint64(b) + 1
	flat := modelFlat[:size]
	clear(flat)
	return &controllerModel{
		t:    t,
		c:    New(Config{Size: size, Banks: 4, RowBytes: 2048, TBurst: 1}),
		flat: flat,
	}
}

// span decodes an access from three script bytes: an anchor (a page or
// chunk boundary, the end of memory, or a scattered address), a signed
// offset from it, and a length of 1 to 16 KiB that is small more often
// than not. addr may leave the controller; ok reports whether it fits.
func (m *controllerModel) span(sel, off, n byte) (addr uint64, length int, ok bool) {
	size := uint64(len(m.flat))
	length = 1 + int(n)*int(n)/4
	var anchor uint64
	switch sel & 3 {
	case 0:
		anchor = uint64(sel>>2) * pageBytes * 17 % size
	case 1:
		anchor = uint64(sel>>2) % 2 * chunkBytes
	case 2:
		anchor = size
	case 3:
		anchor = uint64(sel) * 16411 % size
	}
	a := int64(anchor) + int64(int8(off))*3
	if sel&4 != 0 {
		a -= int64(length / 2) // centre the access on the anchor
	}
	if a < 0 {
		a = 0
	}
	addr = uint64(a)
	return addr, length, addr < size && uint64(length) <= size-addr
}

// step runs one 4-byte instruction: opcode, anchor, offset, length.
func (m *controllerModel) step(i int, ins []byte) {
	addr, n, ok := m.span(ins[1], ins[2], ins[3])
	if cap(m.buf) < n {
		m.buf = make([]byte, n)
	}
	switch ins[0] % 3 {
	case 0:
		data := m.buf[:n]
		for j := range data {
			data[j] = byte(i*31+j) | 1
		}
		_, err := m.c.Write(addr, data)
		if !ok {
			m.wantOutOfRange(i, "write", addr, n, err)
			return
		}
		if err != nil {
			m.t.Fatalf("step %d: write %#x+%d: %v", i, addr, n, err)
		}
		copy(m.flat[addr:], data)
	case 1:
		got := m.buf[:n]
		_, err := m.c.ReadInto(addr, got)
		if !ok {
			m.wantOutOfRange(i, "read", addr, n, err)
			return
		}
		if err != nil {
			m.t.Fatalf("step %d: read %#x+%d: %v", i, addr, n, err)
		}
		if want := m.flat[addr : addr+uint64(n)]; !bytes.Equal(got, want) {
			m.t.Fatalf("step %d: read %#x+%d differs from the flat model at offset %d", i, addr, n, firstDiff(got, want))
		}
	case 2:
		m.rmw(i, addr, ins[0], ins[3])
	}
}

// rmw runs one atomic on the word at addr (aligned down unless the opcode
// byte asks for an unaligned one) and applies its definition to the model.
func (m *controllerModel) rmw(i int, addr uint64, code, arg byte) {
	if code&8 == 0 {
		addr &^= WordBytes - 1
	}
	op := RMWOp(1 + code>>4%8)
	a := uint64(arg) * 0x0101010101010101
	b := ^a
	args := []uint64{a}
	if op == OpCAS {
		if code&64 == 0 && addr+WordBytes <= uint64(len(m.flat)) {
			a = binary.LittleEndian.Uint64(m.flat[addr:]) // a CAS that swaps
		}
		args = []uint64{a, b}
	}
	res, _, err := m.c.RMW(addr, op, args...)
	switch {
	case addr%WordBytes != 0:
		if !errors.Is(err, ErrUnaligned) {
			m.t.Fatalf("step %d: unaligned %v at %#x: %v, want ErrUnaligned", i, op, addr, err)
		}
		return
	case addr+WordBytes > uint64(len(m.flat)):
		m.wantOutOfRange(i, op.String(), addr, WordBytes, err)
		return
	case err != nil:
		m.t.Fatalf("step %d: %v at %#x: %v", i, op, addr, err)
	}
	old := binary.LittleEndian.Uint64(m.flat[addr:])
	next, want := old, old
	switch op {
	case OpCAS:
		want = 0
		if old == a {
			next, want = b, 1
		}
	case OpFetchAdd:
		next = old + a
	case OpSwap:
		next = a
	case OpAnd:
		next = old & a
	case OpOr:
		next = old | a
	case OpXor:
		next = old ^ a
	case OpMin:
		next = uint64(min(int64(old), int64(a)))
	case OpMax:
		next = uint64(max(int64(old), int64(a)))
	}
	if res != want {
		m.t.Fatalf("step %d: %v at %#x returned %#x, want %#x", i, op, addr, res, want)
	}
	binary.LittleEndian.PutUint64(m.flat[addr:], next)
}

func (m *controllerModel) wantOutOfRange(i int, what string, addr uint64, n int, err error) {
	m.t.Helper()
	if !errors.Is(err, ErrOutOfRange) {
		m.t.Fatalf("step %d: %s %#x+%d past %#x: %v, want ErrOutOfRange", i, what, addr, n, len(m.flat), err)
	}
}

// run replays script, four bytes a step, then compares all of memory with
// the model: a page the controller never allocated must be zero there, and
// the others are read back (which allocates nothing more).
func (m *controllerModel) run(script []byte) {
	for i := 0; len(script) >= 4; i++ {
		m.step(i, script[:4])
		script = script[4:]
	}
	var zero [pageBytes]byte
	got := make([]byte, pageBytes)
	for addr := uint64(0); addr < uint64(len(m.flat)); addr += pageBytes {
		want := m.flat[addr:min(addr+pageBytes, uint64(len(m.flat)))]
		if !m.c.resident(addr) {
			if !bytes.Equal(want, zero[:len(want)]) {
				m.t.Fatalf("page %#x was never allocated but the model wrote it", addr)
			}
			continue
		}
		if _, err := m.c.ReadInto(addr, got[:len(want)]); err != nil {
			m.t.Fatalf("final read of page %#x: %v", addr, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			m.t.Fatalf("final memory differs from the flat model at %#x", addr+uint64(firstDiff(got, want)))
		}
	}
}

// resident reports whether the page holding addr was ever allocated.
func (c *Controller) resident(addr uint64) bool {
	idx := addr / pageBytes
	ch := c.pages[idx/chunkPages]
	return ch != nil && ch[idx%chunkPages] != nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// controllerScript is a seeded random script of steps instructions.
func controllerScript(seed uint64, steps int) []byte {
	rng := workload.NewRand(seed)
	script := make([]byte, 1+4*steps)
	for i := range script {
		script[i] = byte(rng.Uint64())
	}
	return script
}

// TestControllerModel replays seeded scripts: long enough to overlap
// writes, straddle page and chunk boundaries, run every atomic and read
// memory no step wrote.
func TestControllerModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		script := controllerScript(seed, 2000)
		newControllerModel(t, script[0]).run(script[1:])
	}
}

// FuzzControllerModel lets the fuzzer write the script; the seed corpus runs
// under plain go test.
func FuzzControllerModel(f *testing.F) {
	// Overlapping writes across the first chunk boundary, a read of their
	// untouched neighbours, an RMW on the last word and a write off the end.
	f.Add([]byte{7, 0, 5, 0, 200, 0, 5, 40, 90, 1, 5, 200, 255, 2, 2, 0, 0, 0, 2, 253, 10, 1, 0, 0, 255})
	f.Add([]byte{0, 0, 0, 0, 255, 0, 4, 128, 255, 1, 0, 128, 255, 34, 1, 0, 7, 8, 1, 0, 7})
	f.Add(controllerScript(9, 64))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		newControllerModel(t, script[0]).run(script[1:])
	})
}
