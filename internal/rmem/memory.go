package rmem

import (
	"encoding/binary"
	"errors"

	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Memory is the asynchronous remote-memory API: what the core sees of the
// far side, whether that is one memory node (Client) or a dual-homed fabric
// of them (cluster.Client). An op either fails at issue — the error is
// returned and cb never fires — or completes exactly once through cb, on
// the caller's stack (loopback) or a transport goroutine. Data handed to a
// Read callback is valid only for the duration of the callback.
type Memory interface {
	Read(addr uint64, n int, cb func([]byte, error)) error
	Write(addr uint64, data []byte, cb func(error)) error
	RMW(addr uint64, op memctl.RMWOp, args []uint64, cb func(uint64, error)) error
}

// ReadSync is the blocking form of Memory.Read. It returns a fresh copy of
// the data (the async callback's view is only transiently valid).
func ReadSync(m Memory, addr uint64, n int) ([]byte, error) {
	type res struct {
		data []byte
		err  error
	}
	ch := make(chan res, 1)
	if err := m.Read(addr, n, func(d []byte, err error) {
		// Copy into a fresh variable: d aliases a pooled buffer and must
		// not leave the callback (pooledescape proves this form).
		var data []byte
		if err == nil {
			data = append([]byte(nil), d...)
		}
		ch <- res{data, err}
	}); err != nil {
		return nil, err
	}
	r := <-ch
	return r.data, r.err
}

// WriteSync is the blocking form of Memory.Write.
func WriteSync(m Memory, addr uint64, data []byte) error {
	ch := make(chan error, 1)
	if err := m.Write(addr, data, func(err error) { ch <- err }); err != nil {
		return err
	}
	return <-ch
}

// RMWSync is the blocking form of Memory.RMW.
func RMWSync(m Memory, addr uint64, op memctl.RMWOp, args ...uint64) (uint64, error) {
	type res struct {
		v   uint64
		err error
	}
	ch := make(chan res, 1)
	if err := m.RMW(addr, op, args, func(v uint64, err error) { ch <- res{v, err} }); err != nil {
		return 0, err
	}
	r := <-ch
	return r.v, r.err
}

// ErrMismatch fails a replayed read whose data is not what the replay's
// own writes can have left at that address.
var ErrMismatch = errors.New("rmem: read data does not match the pattern for its address")

// patternK derives the replay's write payload from the address: the 8-byte
// word at byte address a holds (a/8+1)*patternK, which is never zero, so a
// word is distinguishable from untouched memory and from any other word.
const patternK = 0x9e3779b97f4a7c15

// ReplayConfig is the load model of Replay.
type ReplayConfig struct {
	// Window is the number of ops kept in flight (minimum 1).
	Window int
	// Now reads the clock latencies are measured on: a loopback's virtual
	// clock (the run is then a pure function of its inputs) or wall time.
	Now func() sim.Time
	// Interval, when positive, paces an open loop: op i is due Interval*i
	// after the first, WaitUntil blocks until Now reaches a due time
	// (VirtualClock.AdvanceTo, or a sleep), and an op that finds no free
	// window slot when due is shed, never issued. Zero runs closed-loop:
	// the next op is issued as soon as a slot frees.
	Interval  sim.Time
	WaitUntil func(sim.Time)
	// Before, when non-nil, runs on the issuing goroutine just before op i
	// is issued, with its window slot already claimed — at Window 1 every
	// earlier op has completed. It may move the clock.
	Before func(i int)
	// After, when non-nil, runs once per op as its outcome is recorded: on
	// the goroutine that completed it (the issuer's on a loopback), or on the
	// issuer for an op that was shed or rejected at issue.
	After func(i int, r OpResult)
}

// OpResult is the outcome of one replayed op.
type OpResult struct {
	Latency sim.Time // issue to completion on the replay's clock
	Err     error    // nil: completed and, for a read, verified
	Shed    bool     // paced runs: no free slot when due (Err is ErrTooManyOut)
}

// replaySlot is one window position: the op it carries and the completion
// callbacks bound to it once, so issuing allocates nothing.
type replaySlot struct {
	r     *replayer
	op    int      // index of the op in flight
	start sim.Time // its issue time
	buf   []byte   // write payload, sized for the largest op

	readCB  func([]byte, error)
	writeCB func(error)
}

type replayer struct {
	cfg     ReplayConfig
	ops     []workload.Op
	addrs   []uint64
	results []OpResult
	free    chan *replaySlot // idle slots; completions refill it
	// acked has one bit per 8-byte word, set once a write covering the whole
	// word was acked. Kept at Window 1 only, where everything acked before a
	// read completes was acked before it was issued.
	acked []uint64
}

// Replay issues ops[i] at addrs[i] (8-byte aligned) through mem from one
// goroutine, cfg.Window in flight, and returns every op's outcome once the
// window has drained. Writes carry an address-derived pattern and reads are
// checked against it: every word read must be untouched (zero) or a prefix
// of its pattern — a write may end mid-word — and at Window 1 a word whose
// write was acked must be the pattern. A violation fails the read with
// ErrMismatch.
func Replay(mem Memory, ops []workload.Op, addrs []uint64, cfg ReplayConfig) []OpResult {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	r := &replayer{cfg: cfg, ops: ops, addrs: addrs,
		results: make([]OpResult, len(ops)),
		free:    make(chan *replaySlot, cfg.Window)}
	var maxSize int
	var top uint64
	for i, op := range ops {
		if op.Size > maxSize {
			maxSize = op.Size
		}
		if end := addrs[i] + uint64(op.Size); end > top {
			top = end
		}
	}
	if cfg.Window == 1 {
		r.acked = make([]uint64, top/8/64+1)
	}
	for i := 0; i < cfg.Window; i++ {
		s := &replaySlot{r: r, buf: make([]byte, maxSize)}
		s.readCB = s.onRead
		s.writeCB = s.onWrite
		r.free <- s
	}

	t0 := cfg.Now()
	for i, op := range ops {
		var s *replaySlot
		if cfg.Interval > 0 {
			cfg.WaitUntil(t0 + sim.Time(i)*cfg.Interval)
			select {
			case s = <-r.free:
			default:
				r.finish(i, OpResult{Err: ErrTooManyOut, Shed: true})
				continue
			}
		} else {
			s = <-r.free
		}
		if cfg.Before != nil {
			cfg.Before(i)
		}
		s.op = i
		s.start = cfg.Now()
		var err error
		if op.Read {
			err = mem.Read(addrs[i], op.Size, s.readCB)
		} else {
			replayPattern(s.buf[:op.Size], addrs[i])
			err = mem.Write(addrs[i], s.buf[:op.Size], s.writeCB)
		}
		if err != nil {
			// Rejected at issue: the callback never fires.
			r.finish(i, OpResult{Err: err})
			r.free <- s
		}
	}
	for i := 0; i < cfg.Window; i++ {
		<-r.free // every slot idle again: the window has drained
	}
	return r.results
}

func (s *replaySlot) onRead(data []byte, err error) {
	r := s.r
	end := r.cfg.Now() // before the check: it is not part of the op
	if err == nil && !r.verify(data, r.addrs[s.op], r.ops[s.op].Size) {
		err = ErrMismatch
	}
	s.complete(end, err)
}

func (s *replaySlot) onWrite(err error) {
	r := s.r
	end := r.cfg.Now()
	if err == nil && r.acked != nil {
		// The words the write covered whole; its mid-word tail stays unmarked.
		w := r.addrs[s.op] / 8
		for last := w + uint64(r.ops[s.op].Size)/8; w < last; w++ {
			r.acked[w/64] |= 1 << (w % 64)
		}
	}
	s.complete(end, err)
}

func (s *replaySlot) complete(end sim.Time, err error) {
	s.r.finish(s.op, OpResult{Latency: end - s.start, Err: err})
	s.r.free <- s
}

// finish records op i's outcome.
func (r *replayer) finish(i int, res OpResult) {
	r.results[i] = res
	if r.cfg.After != nil {
		r.cfg.After(i, res)
	}
}

// replayPattern writes the pattern of [addr, addr+len(p)) into p.
func replayPattern(p []byte, addr uint64) {
	w := (addr/8 + 1) * patternK
	for ; len(p) >= 8; p = p[8:] {
		binary.LittleEndian.PutUint64(p, w)
		w += patternK
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], w)
	copy(p, tail[:])
}

// verify reports whether p can be what a read of n bytes at addr returns.
// Every write starts word-aligned, so a word holds a prefix of its pattern
// followed by zeros; a fully acked word holds all of it.
func (r *replayer) verify(p []byte, addr uint64, n int) bool {
	if len(p) != n {
		return false
	}
	for word := addr / 8; len(p) > 0; word++ {
		var tail [8]byte
		k := copy(tail[:], p) // bytes of this word the read covers
		p = p[k:]
		got := binary.LittleEndian.Uint64(tail[:])
		want := (word + 1) * patternK
		if k < 8 {
			want &= 1<<(8*k) - 1
		}
		if got == want {
			continue
		}
		if r.acked != nil && r.acked[word/64]&(1<<(word%64)) != 0 {
			return false
		}
		for mask := uint64(1)<<(8*(k-1)) - 1; got != want&mask; mask >>= 8 {
			if mask == 0 {
				return false
			}
		}
	}
	return true
}
