package memctl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/workload"
)

// pageBytes is the granularity the kernel fills a controller's mapping at,
// and chunkBytes a huge page's span (and the second level of the page table
// the mapping replaced).
const (
	pageBytes  = 4096
	chunkBytes = 2 << 20
)

// modelBytes is the bulk of a model controller: enough pages for 16 KiB
// accesses to straddle several, small enough that reading all of it back,
// one zero-page fault per page never written, stays cheap per fuzz input.
const modelBytes = 16 * pageBytes

// controllerModel replays a byte script against a Controller and a flat
// []byte of the same size, which is what the controller must be
// indistinguishable from: every write lands at its address, everything
// else reads as zero, out-of-range accesses fail and change nothing.
type controllerModel struct {
	t    testing.TB
	c    *Controller
	flat []byte
	buf  []byte
}

// modelFlat and modelGot back every model's flat reference and final
// read-back in turn (tests using them do not run in parallel).
var modelFlat, modelGot = make([]byte, modelBytes+5*pageBytes/2+2*255+1), make([]byte, len(modelFlat))

// newControllerModel sizes the controller from b: always odd, so the last
// page is partial.
func newControllerModel(t testing.TB, b byte) *controllerModel {
	size := modelBytes + 5*pageBytes/2 + 2*uint64(b) + 1
	flat := modelFlat[:size]
	clear(flat)
	return &controllerModel{
		t:    t,
		c:    New(Config{Size: size}),
		flat: flat,
	}
}

// span decodes an access from three script bytes: an anchor (a page
// boundary, the start or the 16th page of memory, its end, or a scattered
// address), a signed
// offset from it, and a length of 1 to 16 KiB that is small more often
// than not. addr may leave the controller; ok reports whether it fits.
func (m *controllerModel) span(sel, off, n byte) (addr uint64, length int, ok bool) {
	size := uint64(len(m.flat))
	length = 1 + int(n)*int(n)/4
	var anchor uint64
	switch sel & 3 {
	case 0:
		anchor = uint64(sel>>2) * pageBytes % size
	case 1:
		anchor = uint64(sel>>2) % 2 * modelBytes
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

// run replays script, four bytes a step, then reads all of memory back and
// compares it with the model.
func (m *controllerModel) run(script []byte) {
	for i := 0; len(script) >= 4; i++ {
		m.step(i, script[:4])
		script = script[4:]
	}
	got := modelGot[:len(m.flat)]
	if _, err := m.c.ReadInto(0, got); err != nil {
		m.t.Fatalf("final read: %v", err)
	}
	if i := firstDiff(got, m.flat); i >= 0 {
		m.t.Fatalf("final memory differs from the flat model at %#x", i)
	}
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
// writes, straddle page boundaries, run every atomic and read
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
	// Overlapping writes, a read of their
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
