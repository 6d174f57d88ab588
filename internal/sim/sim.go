// Package sim provides a deterministic discrete-event simulation kernel.
//
// All EDM experiments run on this kernel. Time is an integer number of
// picoseconds so that sub-nanosecond quantities (e.g. the 0.64 ns
// transmission time of an 8 B message at 100 Gbps, or the 2.56 ns PCS clock
// of 25 GbE) are represented exactly, with no floating-point drift across a
// long simulation.
//
// Events scheduled for the same instant fire in the order they were
// scheduled, which makes runs bit-for-bit reproducible.
package sim

import "fmt"

// Time is a simulated instant or duration in picoseconds.
type Time int64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	}
}

// Handler is the callback invoked when an event fires.
type Handler func()

type event struct {
	at  Time
	seq uint64
	fn  Handler
}

// before is the queue order: time, then scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	queue   []event // binary min-heap in before order, held by value
	stopped bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a logic error in a discrete-event model.
func (e *Engine) At(t Time, fn Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	e.queue = append(e.queue, event{at: t, seq: e.seq, fn: fn})
	q := e.queue
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Stop makes Run return after the currently firing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		e.step()
	}
}

// Step fires exactly one event and reports whether one was available. It
// lets callers interleave simulation with condition checks at event
// granularity (e.g. "run until this operation completes").
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.step()
	return true
}

// RunUntil fires events with timestamps <= deadline and then advances the
// clock to the deadline.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped && e.queue[0].at <= deadline {
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

func (e *Engine) step() {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0], q[n] = q[n], event{}
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	e.queue = q
	e.now = ev.at
	ev.fn()
}

// Gbps is a link bandwidth in gigabits per second.
type Gbps int64

// TransmissionTime reports how long it takes to serialize n bytes onto a
// link of bandwidth bw. It rounds up to the next picosecond.
func TransmissionTime(n int, bw Gbps) Time {
	if n < 0 {
		panic("sim: negative byte count")
	}
	if bw <= 0 {
		panic("sim: non-positive bandwidth")
	}
	bits := int64(n) * 8
	// bits / (bw Gb/s) seconds = bits*1000/bw picoseconds... carefully:
	// 1 Gbps = 1 bit/ns = 0.001 bit/ps, so time_ps = bits * 1000 / bw.
	ps := (bits*1000 + int64(bw) - 1) / int64(bw)
	return Time(ps)
}
