// Package memctl models a DDR4-like memory controller and its DRAM.
//
// The memory node in EDM terminates RREQ/WREQ/RMWREQ messages at a memory
// controller, and the paper's demand-estimation trick relies on the
// controller interface requiring an explicit byte count per access. This
// model provides a byte-addressable store with bank/row timing (row-buffer
// hits are fast, conflicts pay precharge+activate) and the NIC-side atomic
// read-modify-write operations of §3.2.1. The store is one flat mapping:
// an access is one copy, with no translation on its path.
package memctl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// The DRAM model: DDR4-2400 geometry and timing, with a controller overhead
// chosen so that a random (row-miss) access lands near the ~82 ns
// local-DRAM latency the paper uses in Figure 7.
const (
	banks       = 16
	rowBytes    = 8192                   // row-buffer (page) size per bank
	tRP         = 13320 * sim.Picosecond // precharge
	tRCD        = 13320 * sim.Picosecond // activate (row to column delay)
	tCAS        = 13320 * sim.Picosecond // column access (CL)
	tBurst      = 3330 * sim.Picosecond  // one burst transfer (64 B)
	ctlOverhead = 52 * sim.Nanosecond    // fixed controller/queueing overhead per access
)

// Config sizes a controller.
type Config struct {
	Size uint64 // total bytes of addressable memory
	// Untimed charges every access 0: Table 1 measures fabric latency
	// excluding DRAM access time. The open-row bookkeeping still runs.
	Untimed bool
}

// DefaultConfig returns the 1 GiB timed controller used throughout the
// experiments.
func DefaultConfig() Config { return Config{Size: 1 << 30} }

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

// Controller is a single-channel memory controller with a per-bank open-row
// policy. It is not safe for concurrent use: the simulation kernel is
// single-threaded, and each rmem shard locks its own controller.
//
// Its DRAM is one private anonymous mapping of Size bytes outside the Go
// heap (a heap slice where there is no mmap), zero-filled lazily by the
// kernel: a read of never-written memory maps the shared zero page and adds
// no RSS, and a page faults once, on its first store. A cleanup unmaps it
// once the controller is unreachable, so no method returns a view into it
// (Read and ReadInto copy: an escaped view would be a use after unmap), and
// every access charges its timing after its copy, which keeps the
// controller reachable through it. The race detector does not watch that
// memory, but every access also writes openRow and accesses, so -race still
// catches a controller used without its caller's lock.
type Controller struct {
	cfg      Config
	mem      []byte       // cfg.Size bytes, mapped by New; guarded by caller
	openRow  [banks]int64 // -1 = closed; guarded by caller
	accesses uint64       // guarded by caller
	rowHits  uint64       // guarded by caller
}

// New returns a controller with the given configuration.
func New(cfg Config) *Controller {
	if cfg.Size == 0 || cfg.Size > math.MaxInt {
		panic("memctl: invalid config")
	}
	var closed [banks]int64
	for i := range closed {
		closed[i] = -1
	}
	c := &Controller{cfg: cfg, openRow: closed}
	//edmlint:allow lockcheck c is not yet published; no other goroutine can observe it
	c.mem = mapMemory(c, int(cfg.Size))
	return c
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
// pipeline at tBurst each; only the access's first burst pays the full
// column latency, so the other bursts' tCAS comes off at the end. extra is
// added to a timed controller's charge; an untimed one charges 0.
//
//edmlint:hotpath runs once per served memory access
func (c *Controller) accessTime(addr uint64, n int, extra sim.Time) sim.Time {
	total := ctlOverhead + extra
	off, end := addr&^(BurstBytes-1), addr+uint64(n)
	var bursts uint64
	for off < end {
		g := off / rowBytes // global row: banks interleave at row granularity
		bank, row := g%banks, int64(g/banks)
		segEnd := (g + 1) * rowBytes
		if segEnd > end {
			segEnd = end
		}
		k := (segEnd - off + BurstBytes - 1) / BurstBytes
		if c.openRow[bank] == row {
			c.rowHits++
		} else {
			if c.openRow[bank] >= 0 {
				total += tRP // close the old row
			}
			total += tRCD
			c.openRow[bank] = row
		}
		c.rowHits += k - 1
		bursts += k
		off += k * BurstBytes
	}
	c.accesses += bursts
	if c.cfg.Untimed {
		return 0
	}
	return total + sim.Time(bursts)*tBurst + tCAS
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
	copy(dst, c.mem[addr:])
	return c.accessTime(addr, len(dst), 0), nil
}

// Write stores data at addr and returns the access latency.
//
//edmlint:hotpath
func (c *Controller) Write(addr uint64, data []byte) (sim.Time, error) {
	if err := c.check(addr, len(data)); err != nil {
		return 0, err
	}
	copy(c.mem[addr:], data)
	return c.accessTime(addr, len(data), 0), nil
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

// Apply is the menu's rule: the word op leaves behind when it runs on old
// with args, and the result it returns (for CAS: 1 if it swapped, else 0;
// for the others: old). args must hold RMWArgCount(op) values. A replica
// that stores what an atomic elsewhere left behind derives it here.
//
//edmlint:hotpath
func Apply(op RMWOp, old uint64, args []uint64) (newVal, result uint64) {
	switch op {
	case OpCAS:
		if old == args[0] {
			return args[1], 1
		}
		return old, 0
	case OpFetchAdd:
		return old + args[0], old
	case OpSwap:
		return args[0], old
	case OpAnd:
		return old & args[0], old
	case OpOr:
		return old | args[0], old
	case OpXor:
		return old ^ args[0], old
	case OpMin:
		if int64(args[0]) < int64(old) {
			return args[0], old
		}
	case OpMax:
		if int64(args[0]) > int64(old) {
			return args[0], old
		}
	}
	return old, old
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
	word := c.mem[addr : addr+WordBytes]
	newVal, result := Apply(op, binary.LittleEndian.Uint64(word), args)
	binary.LittleEndian.PutUint64(word, newVal)
	// Read + write to the same open row: one activate, two column accesses.
	t := c.accessTime(addr, WordBytes, tCAS+tBurst)
	return result, t, nil
}
