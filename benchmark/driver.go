//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/memctl"
)

// clockBase anchors the monotonic clock every timestamp in a child process
// is read from: nanoseconds since process start.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// slot is one window position: the op it currently carries and the three
// completion callbacks bound to it once, so issuing allocates nothing.
type slot struct {
	d     *driver
	idx   int
	kind  uint8 // opRead, opWrite, opRMW
	class uint8 // kind, or opSplit when the op straddles an extent
	addr  uint64
	n     int
	word  int // counter index of an RMW
	args  [1]uint64
	start int64
	opSeq uint32
	done  bool // inline completion seen (sync targets)

	readCB  func([]byte, error)
	writeCB func(error)
	rmwCB   func(uint64, error)
}

// Latency samples pack the op class into the top two bits.
const (
	latBits = 30
	latMask = 1<<latBits - 1
)

// inlineTimedEvery: on inline targets, where an op is a microsecond and a
// clock read is ~30 ns, only every fourth op is timed (exactly, like the
// rest), so the two clock reads stay a small share of what is measured.
// Asynchronous targets (tens of microseconds per op) time every op.
const inlineTimedEvery = 4

// driver is the closed-loop generator: one issuing goroutine keeps Window
// ops in flight through the async API. On targets that complete inline
// (every loopback) the window is necessarily 1 and the loop needs no
// semaphore at all; otherwise free slots circulate through a channel that
// the completion callbacks refill.
type driver struct {
	mem    memory
	inline bool
	gen    *opGen
	ver    *verifier
	tr     *tracer
	slots  []slot
	free   chan int
	wbuf   [][]byte // per-slot write payload

	measuring bool
	opSeq     uint32

	// Written by successful completions only. Those run one at a time (in
	// the issuer's stack on inline targets, on the UDP read loop otherwise)
	// and the issuer reads them only after draining the window, so they
	// need no atomics; the hot path pays for none.
	lat       []uint32 // preallocated, exact per-op latencies
	nlat      int
	ok        uint64 // verified completions
	goodBytes uint64
	latSum    int64 // over every timed op, kept or not
	timed     uint64

	// Failures can also arrive on retry-timer goroutines.
	failed   atomic.Uint64 // errors + verification mismatches
	firstErr atomic.Value
}

func newDriver(mem memory, inline bool, sp spec, gen *opGen, ver *verifier, tr *tracer, seconds float64) *driver {
	w := sp.Window
	latCap := int(float64(sp.MaxRate)*seconds) + 1
	if inline {
		w = 1
		latCap = latCap/inlineTimedEvery + 1
	}
	d := &driver{mem: mem, inline: inline, gen: gen, ver: ver, tr: tr,
		slots: make([]slot, w), free: make(chan int, w), wbuf: make([][]byte, w),
		lat: make([]uint32, latCap)}
	// Touch the whole latency buffer now: RSS must not grow with the op rate.
	for i := range d.lat {
		d.lat[i] = 1
	}
	for i := range d.slots {
		s := &d.slots[i]
		s.d, s.idx = d, i
		s.readCB = s.onRead
		s.writeCB = s.onWrite
		s.rmwCB = s.onRMW
		d.wbuf[i] = make([]byte, sp.Size)
		d.free <- i
	}
	return d
}

func (d *driver) fail(err error) {
	d.failed.Add(1)
	if err != nil {
		d.firstErr.CompareAndSwap(nil, err)
	}
}

var errMismatch = errors.New("verification mismatch: read data does not match the pattern for its address")

// complete is the tail every callback shares: record the latency sample,
// count the outcome, close the callback span, free the slot. Only
// successful completions are traced: failures arrive on timer goroutines
// the trace lanes do not cover, and fail the run anyway.
func (s *slot) complete(end int64, err error, good int, tr *tracer) {
	d := s.d
	if err != nil {
		d.fail(err)
	} else {
		d.ok++
		d.goodBytes += uint64(good)
		if d.measuring && s.start != 0 {
			l := end - s.start
			d.latSum += l
			d.timed++
			if l > latMask {
				l = latMask
			}
			if d.nlat < len(d.lat) {
				d.lat[d.nlat] = uint32(s.class)<<latBits | uint32(l)
				d.nlat++
			}
		}
	}
	if tr != nil {
		tr.endCallback()
	}
	if d.inline {
		s.done = true
		return
	}
	d.free <- s.idx
}

// enter stamps the completion time of a timed op and opens the callback
// span.
func (s *slot) enter(err error) (end int64, tr *tracer) {
	if s.start == 0 {
		return 0, nil
	}
	end = nowNS()
	if tr = s.d.tr; tr != nil && err == nil {
		tr.beginCallback(end)
		return end, tr
	}
	return end, nil
}

func (s *slot) onRead(data []byte, err error) {
	end, tr := s.enter(err)
	if err == nil && (len(data) != s.n || !checkPattern(data, s.addr, s.d.ver.readK)) {
		err = errMismatch
	}
	s.complete(end, err, s.n, tr)
}

func (s *slot) onWrite(err error) {
	end, tr := s.enter(err)
	s.complete(end, err, s.n, tr)
}

func (s *slot) onRMW(_ uint64, err error) {
	end, tr := s.enter(err)
	if err == nil {
		s.d.ver.expect[s.word].Add(s.args[0])
	}
	s.complete(end, err, 0, tr)
}

// issue sends the op s carries. The slot is already claimed.
func (d *driver) issue(s *slot) {
	var err error
	d.opSeq++
	s.opSeq = d.opSeq
	s.done = false
	var buf []byte
	if s.kind == opWrite {
		buf = d.wbuf[s.idx][:s.n]
		fillPattern(buf, s.addr, writeK)
		d.ver.markWritten(s.addr, s.n)
	}
	// A traced run times every op: the spans need the clock anyway.
	s.start = 0
	if !d.inline || d.tr != nil || d.opSeq%inlineTimedEvery == 0 {
		s.start = nowNS()
	}
	if d.tr != nil {
		d.tr.beginOp(s.opSeq, s.start)
	}
	switch s.kind {
	case opRead:
		err = d.mem.Read(s.addr, s.n, s.readCB)
	case opWrite:
		err = d.mem.Write(s.addr, buf, s.writeCB)
	default:
		err = d.mem.RMW(s.addr, memctl.OpFetchAdd, s.args[:], s.rmwCB)
	}
	if d.tr != nil {
		d.tr.endOp()
	}
	switch {
	case err != nil:
		// Rejected at the API: the callback never fires.
		d.fail(err)
		if !d.inline {
			d.free <- s.idx
		}
	case d.inline && !s.done:
		d.fail(fmt.Errorf("op %d did not complete inline on a synchronous target", s.opSeq))
	}
}

// runCount issues exactly n ops and waits for them (the warm-up).
func (d *driver) runCount(n int) {
	if d.inline {
		s := &d.slots[0]
		for i := 0; i < n; i++ {
			d.gen.next(s)
			d.issue(s)
		}
		return
	}
	for i := 0; i < n; i++ {
		s := &d.slots[<-d.free]
		d.gen.next(s)
		d.issue(s)
	}
	d.drain()
}

// runFor issues ops until dur has passed, waits for the window to empty,
// and returns the first-issue and last-completion times.
func (d *driver) runFor(dur time.Duration) (t0, t1 int64) {
	d.measuring = true
	t0 = nowNS()
	deadline := t0 + int64(dur)
	if d.inline {
		s := &d.slots[0]
		for {
			d.gen.next(s)
			d.issue(s)
			if s.start >= deadline {
				break
			}
		}
	} else {
		for {
			s := &d.slots[<-d.free]
			d.gen.next(s)
			d.issue(s)
			if s.start >= deadline {
				break
			}
		}
		d.drain()
	}
	t1 = nowNS()
	d.measuring = false
	return t0, t1
}

// drain waits until every slot is free again.
func (d *driver) drain() {
	for i := 0; i < cap(d.free); i++ {
		<-d.free
	}
	for i := 0; i < cap(d.free); i++ {
		d.free <- i
	}
}

// syncRead is the blocking read of the verification sweep; it works on
// inline and asynchronous targets alike.
func syncRead(mem memory, addr uint64, n int, into []byte) error {
	ch := make(chan error, 1)
	if err := mem.Read(addr, n, func(p []byte, err error) {
		if err == nil {
			if len(p) != n {
				err = fmt.Errorf("read %d bytes at %#x, want %d", len(p), addr, n)
			} else {
				copy(into, p)
			}
		}
		ch <- err
	}); err != nil {
		return err
	}
	return <-ch
}
