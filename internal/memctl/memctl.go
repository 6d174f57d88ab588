// Package memctl models a DDR4-like memory controller and its DRAM.
//
// The memory node in EDM terminates RREQ/WREQ/RMWREQ messages at a memory
// controller, and the paper's demand-estimation trick relies on the
// controller interface requiring an explicit byte count per access. This
// model provides a byte-addressable store with bank/row timing (row-buffer
// hits are fast, conflicts pay precharge+activate) and the NIC-side atomic
// read-modify-write operations of §3.2.1.
package memctl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Config describes the DRAM geometry and timing. The defaults approximate
// DDR4-2400 with a controller overhead chosen so that a random (row-miss)
// access lands near the ~82 ns local-DRAM latency the paper uses in
// Figure 7.
type Config struct {
	Size     uint64 // total bytes of addressable memory
	Banks    int
	RowBytes uint64 // row-buffer (page) size per bank

	TRP      sim.Time // precharge
	TRCD     sim.Time // activate (row to column delay)
	TCAS     sim.Time // column access (CL)
	TBurst   sim.Time // one burst transfer (64 B)
	Overhead sim.Time // fixed controller/queueing overhead per access
}

// DefaultConfig returns the DDR4-2400-like configuration used throughout
// the experiments.
func DefaultConfig() Config {
	return Config{
		Size:     1 << 30, // 1 GiB
		Banks:    16,
		RowBytes: 8192,
		TRP:      13320 * sim.Picosecond,
		TRCD:     13320 * sim.Picosecond,
		TCAS:     13320 * sim.Picosecond,
		TBurst:   3330 * sim.Picosecond,
		Overhead: 52 * sim.Nanosecond,
	}
}

// BurstBytes is the DDR4 burst size: 8 beats of a 64-bit interface.
const BurstBytes = 64

// WordBytes is the DDR word size used by the atomic operations.
const WordBytes = 8

// Controller errors.
var (
	ErrOutOfRange = errors.New("memctl: address out of range")
	ErrBadLength  = errors.New("memctl: length must be positive")
	ErrUnaligned  = errors.New("memctl: atomic access must be 8-byte aligned")
	ErrBadOpcode  = errors.New("memctl: unknown RMW opcode")
)

const (
	pageBytes  = 4096
	chunkPages = 512 // pages per second-level table: 2 MiB of address space
)

// pageChunk is one second-level page table; a nil slot is a page never
// touched.
type pageChunk [chunkPages]*[pageBytes]byte

// Controller is a single-channel memory controller with a per-bank open-row
// policy. It is not safe for concurrent use; the simulation kernel is
// single-threaded by design.
type Controller struct {
	cfg      Config
	pages    []*pageChunk // indexed by page number / chunkPages, filled on first touch; guarded by caller (single-threaded by design; each rmem shard serializes its own controller under its mu)
	openRow  []int64      // per bank; -1 = closed; guarded by caller
	accesses uint64       // guarded by caller
	rowHits  uint64       // guarded by caller
}

// New returns a controller with the given configuration.
func New(cfg Config) *Controller {
	if cfg.Banks <= 0 || cfg.RowBytes == 0 || cfg.Size == 0 {
		panic("memctl: invalid config")
	}
	open := make([]int64, cfg.Banks)
	for i := range open {
		open[i] = -1
	}
	chunks := (cfg.Size-1)/(pageBytes*chunkPages) + 1
	return &Controller{cfg: cfg, pages: make([]*pageChunk, chunks), openRow: open}
}

// Size reports addressable bytes.
func (c *Controller) Size() uint64 { return c.cfg.Size }

// Stats reports total accesses and row-buffer hits.
func (c *Controller) Stats() (accesses, rowHits uint64) { return c.accesses, c.rowHits }

func (c *Controller) check(addr uint64, n int) error {
	if n <= 0 {
		return ErrBadLength
	}
	if addr >= c.cfg.Size || uint64(n) > c.cfg.Size-addr {
		return fmt.Errorf("%w: addr=%#x len=%d size=%#x", ErrOutOfRange, addr, n, c.cfg.Size)
	}
	return nil
}

// accessTime charges bank timing for one access touching [addr, addr+n), in
// closed form per row segment (the run of bursts whose first byte lies in
// one row of one bank): a segment's first burst hits or misses the bank's
// open row, the rest of it are row hits by construction. Consecutive bursts
// pipeline at TBurst each; only the access's first burst pays the full
// column latency, so the other bursts' TCAS comes off at the end.
//
//edmlint:hotpath runs once per served memory access
func (c *Controller) accessTime(addr uint64, n int) sim.Time {
	total := c.cfg.Overhead
	off, end := addr&^(BurstBytes-1), addr+uint64(n)
	var bursts uint64
	for off < end {
		g := off / c.cfg.RowBytes // global row: banks interleave at row granularity
		bank, row := int(g%uint64(c.cfg.Banks)), int64(g/uint64(c.cfg.Banks))
		segEnd := (g + 1) * c.cfg.RowBytes
		if segEnd > end {
			segEnd = end
		}
		k := (segEnd - off + BurstBytes - 1) / BurstBytes
		if c.openRow[bank] == row {
			c.rowHits++
		} else {
			if c.openRow[bank] >= 0 {
				total += c.cfg.TRP // close the old row
			}
			total += c.cfg.TRCD
			c.openRow[bank] = row
		}
		c.rowHits += k - 1
		bursts += k
		off += k * BurstBytes
	}
	c.accesses += bursts
	return total + sim.Time(bursts)*c.cfg.TBurst + c.cfg.TCAS
}

// page returns the page holding addr, allocating it (zero-filled) on first
// touch, as a slice made where the compiler knows the pointer is non-nil:
// past the nil test, or fresh from new. Slicing a *[pageBytes]byte it cannot
// prove non-nil emits a nil check that loads from the page; on memory never
// touched that load maps the shared zero page, and the copy's store behind
// it then takes a second, copy-on-write fault. Callers copy through the
// slice, so a fresh page faults once, on the store (TestFreshPageFaultsOnce).
//
//edmlint:hotpath one lookup per 4 KiB of every access
func (c *Controller) page(addr uint64) []byte {
	idx := addr / pageBytes
	ch := c.pages[idx/chunkPages]
	if ch == nil {
		ch = new(pageChunk)
		c.pages[idx/chunkPages] = ch
	}
	if p := ch[idx%chunkPages]; p != nil {
		return p[:]
	}
	p := new([pageBytes]byte)
	ch[idx%chunkPages] = p
	return p[:]
}

func (c *Controller) copyOut(dst []byte, addr uint64) {
	for len(dst) > 0 {
		p := c.page(addr)
		off := addr % pageBytes
		n := copy(dst, p[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

func (c *Controller) copyIn(addr uint64, src []byte) {
	for len(src) > 0 {
		p := c.page(addr)
		off := addr % pageBytes
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// Read returns n bytes at addr and the access latency.
//
//edmlint:hotpath
func (c *Controller) Read(addr uint64, n int) ([]byte, sim.Time, error) {
	if err := c.check(addr, n); err != nil {
		return nil, 0, err
	}
	//edmlint:allow hotpath convenience form; the zero-alloc hot path uses ReadInto
	out := make([]byte, n)
	t, err := c.ReadInto(addr, out)
	if err != nil {
		return nil, 0, err
	}
	return out, t, nil
}

// ReadInto fills dst from addr and returns the access latency: the
// allocation-free read used by the serving hot path, which reads into a
// recycled response buffer.
//
//edmlint:hotpath
func (c *Controller) ReadInto(addr uint64, dst []byte) (sim.Time, error) {
	if err := c.check(addr, len(dst)); err != nil {
		return 0, err
	}
	c.copyOut(dst, addr)
	return c.accessTime(addr, len(dst)), nil
}

// Write stores data at addr and returns the access latency.
//
//edmlint:hotpath
func (c *Controller) Write(addr uint64, data []byte) (sim.Time, error) {
	if err := c.check(addr, len(data)); err != nil {
		return 0, err
	}
	c.copyIn(addr, data)
	return c.accessTime(addr, len(data)), nil
}

// RMWOp is the opcode of an atomic read-modify-write (§2.3 RMWREQ).
type RMWOp uint8

const (
	OpCAS RMWOp = iota + 1 // compare-and-swap: args[0]=expected, args[1]=new
	OpFetchAdd
	OpSwap
	OpAnd
	OpOr
	OpXor
	OpMin // signed
	OpMax // signed
)

// String names the opcode.
func (op RMWOp) String() string {
	switch op {
	case OpCAS:
		return "cas"
	case OpFetchAdd:
		return "fetch-add"
	case OpSwap:
		return "swap"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("rmw(%d)", uint8(op))
}

// RMWArgCount reports how many 64-bit arguments op consumes.
func RMWArgCount(op RMWOp) (int, error) {
	switch op {
	case OpCAS:
		return 2, nil
	case OpFetchAdd, OpSwap, OpAnd, OpOr, OpXor, OpMin, OpMax:
		return 1, nil
	}
	return 0, fmt.Errorf("%w: %d", ErrBadOpcode, op)
}

// RMW performs an atomic read-modify-write on the 64-bit word at addr and
// returns the operation result (for CAS: 1 if it swapped, else 0; for the
// others: the previous value) and the access latency. The three steps —
// read, modify, write — are atomic with respect to other requests because
// the controller is driven by a single-threaded event loop, exactly like
// the non-preemptible NIC pipeline in the paper.
//
//edmlint:hotpath
func (c *Controller) RMW(addr uint64, op RMWOp, args ...uint64) (uint64, sim.Time, error) {
	if addr%WordBytes != 0 {
		return 0, 0, ErrUnaligned
	}
	if err := c.check(addr, WordBytes); err != nil {
		return 0, 0, err
	}
	want, err := RMWArgCount(op)
	if err != nil {
		return 0, 0, err
	}
	if len(args) != want {
		return 0, 0, fmt.Errorf("memctl: %v needs %d args, got %d", op, want, len(args))
	}
	var buf [WordBytes]byte
	c.copyOut(buf[:], addr)
	old := binary.LittleEndian.Uint64(buf[:])
	var newVal, result uint64
	switch op {
	case OpCAS:
		if old == args[0] {
			newVal, result = args[1], 1
		} else {
			newVal, result = old, 0
		}
	case OpFetchAdd:
		newVal, result = old+args[0], old
	case OpSwap:
		newVal, result = args[0], old
	case OpAnd:
		newVal, result = old&args[0], old
	case OpOr:
		newVal, result = old|args[0], old
	case OpXor:
		newVal, result = old^args[0], old
	case OpMin:
		newVal, result = old, old
		if int64(args[0]) < int64(old) {
			newVal = args[0]
		}
	case OpMax:
		newVal, result = old, old
		if int64(args[0]) > int64(old) {
			newVal = args[0]
		}
	}
	binary.LittleEndian.PutUint64(buf[:], newVal)
	c.copyIn(addr, buf[:])
	// Read + write to the same open row: one activate, two column accesses.
	t := c.accessTime(addr, WordBytes) + c.cfg.TCAS + c.cfg.TBurst
	return result, t, nil
}
