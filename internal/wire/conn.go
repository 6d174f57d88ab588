package wire

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Pipe is one unreliable datagram path to a single peer. Send is best-effort
// (the datagram may be lost, duplicated or corrupted in flight); Close
// releases the underlying resources. Implementations: the UDP client and the
// per-remote reply pipes of the UDP server (udp.go), and the two ends of a
// Loopback (loopback.go).
type Pipe interface {
	Send(p []byte) error
	Close() error
}

// BatchPipe is a Pipe with a batched send. Nothing in the stack implements
// or calls it.
type BatchPipe interface {
	Pipe
	SendBatch(ps [][]byte) error
}

// Reliability errors.
var (
	ErrClosed  = errors.New("wire: connection closed")
	ErrTimeout = errors.New("wire: no response within the retry budget")
	// ErrSlotsBusy fails a call issued while MaxSlots others await their
	// responses: every call slot is in flight.
	ErrSlotsBusy = errors.New("wire: all call slots in flight")
)

// A message ID is a table index and a use counter: seq<<slotBits | slot.
// The slot names one of a connection's call records, and with it one of the
// session's response entries on the server; seq rises with every use of
// that slot, modulo 2^20. Both ends find a message's state by indexing with
// the slot and comparing the ID, no lookup structure in between. A peer that
// numbers its requests 0, 1, 2, ... with fewer than MaxSlots outstanding
// speaks the same layout (slot = id mod MaxSlots, seq rising).
const (
	slotBits = 12
	// MaxSlots is how many calls a connection can have in flight, and the
	// most call slots a session's Responder serves.
	MaxSlots = 1 << slotBits
	slotMask = MaxSlots - 1
	seqMask  = 1<<(32-slotBits) - 1
)

// ConnConfig tunes the client-side reliability layer.
type ConnConfig struct {
	// RetryTimeout is the per-attempt retransmission timeout. A connection
	// keeps one retransmission clock ticking every RetryTimeout/2 while any
	// call is live, so a call is retransmitted between RetryTimeout and
	// 1.5×RetryTimeout after its last send.
	RetryTimeout time.Duration
	// MaxRetries is how many retransmissions follow the first attempt
	// before the call fails with ErrTimeout. The per-ID deadline thus lies
	// in [RT·(MaxRetries+1), 1.5·RT·(MaxRetries+1)) for RT = RetryTimeout.
	// Zero means the default; a negative value disables retransmission
	// entirely (single-attempt fail-fast).
	MaxRetries int
	// Metrics receives the reliability counters. Nil gets a private,
	// unregistered instance (Conn.Metrics reads it); pass a shared instance
	// to aggregate several connections into one family.
	Metrics *ConnMetrics
	// NowNS supplies timestamps (nanoseconds; wall or virtual — the layer
	// never reads a clock itself, keeping deterministic transports
	// byte-reproducible). Nil disables per-op latency in the trace ring.
	NowNS func() int64
	// Trace, when non-nil, receives one record per op lifecycle event
	// (enqueue/send/retry/complete/timeout).
	Trace *telemetry.TraceRing
}

// DefaultConnConfig returns the tuning used by the CLIs: 20 ms per attempt,
// 5 retransmissions (120 ms per-ID deadline).
func DefaultConnConfig() ConnConfig {
	return ConnConfig{RetryTimeout: 20 * time.Millisecond, MaxRetries: 5}
}

func (c *ConnConfig) fill() {
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = DefaultConnConfig().RetryTimeout
	}
	switch {
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	case c.MaxRetries == 0:
		c.MaxRetries = DefaultConnConfig().MaxRetries
	}
	if c.Metrics == nil {
		c.Metrics = NewConnMetrics(nil)
	}
}

// ConnStats counts client-side reliability events.
type ConnStats struct {
	Sent       uint64 // datagrams transmitted (including retransmissions)
	Retransmit uint64 // retransmissions
	Responses  uint64 // responses matched to a pending call
	Stray      uint64 // datagrams that matched no pending call
	Garbage    uint64 // datagrams that failed to decode (corruption)
	Timeouts   uint64 // calls that exhausted their retry budget
}

// Completion receives a call's outcome: the allocation-free alternative to
// a callback closure. A caller embeds its per-op state in a struct
// implementing Completion and passes the same pointer through CallC,
// avoiding one closure allocation per operation. Done is invoked exactly
// once, with either the response or an error; the response Msg is owned by
// the connection and valid only for the duration of the Done call — use
// Msg.Clone (or copy the fields needed) to retain it.
type Completion interface {
	Done(m *Msg, err error)
}

// call is one call slot: the record of the request in flight in it, or of
// the last one. A record keeps its slot index for life and idles on a
// per-connection free list between calls, its encode buffer reused, so the
// steady state allocates nothing. Each reuse raises the seq part of id. The
// sending count keeps a record (and its enc buffer) out of the free list
// while any goroutine is inside pipe.Send with it — a record is only
// recycled when it is done AND no send references it, so a retransmission
// can never observe a buffer being rewritten for a new call.
//
//edmlint:owned callback
type call struct {
	id       uint32 // guarded by mu: seq<<slotBits | slot; the slot bits never change
	enc      []byte // cached encoding, re-sent verbatim on retry; owned by the record
	want     Kind   // expected response kind
	comp     Completion
	start    int64  // NowNS at issue (0 when no clock is wired)
	attempts int    // guarded by mu: datagrams sent or being sent
	sentTick uint32 // guarded by mu: the clock's tick count when the last send returned
	sending  int    // guarded by mu: goroutines inside pipe.Send with enc
	done     bool   // guarded by mu
	next     *call  // guarded by mu: free-list link
}

// queued is one call a clock tick found due for retransmission, pinned for
// the send. It carries the ID, read under the lock, and the attempt the
// retransmission is, for the trace.
type queued struct {
	id      uint32
	attempt int
	cl      *call
}

// expiry is a call a clock tick failed: what its completion needs, saved off
// the record before the record is recycled.
type expiry struct {
	comp     Completion
	id       uint32
	want     Kind
	attempts int
}

// retryTicks is how many clock ticks a call waits after its last send for
// its response: the tick that many beats on retransmits it or times it out.
// With ticks RetryTimeout/2 apart, a send lands somewhere inside a tick
// interval, so that is between RetryTimeout and 1.5×RetryTimeout later. A
// send that arms an idle clock opens an interval and is counted from the
// tick before it: due two ticks on, RetryTimeout later.
const retryTicks = 3

// Conn is the client half of the reliable layer: it gives each request a
// call slot and the message ID that names it, transmits requests over an
// unreliable Pipe, retransmits until the matching response arrives, and
// fails the call with ErrTimeout once the retry budget is spent. One
// retransmission clock per connection, not one timer per call, paces the
// retries (RFC 6298 §5's rule for TCP): it ticks while any call is live and
// retransmits what has gone retryTicks ticks unanswered. Callbacks are
// invoked on whatever goroutine delivers the response (the transport's
// receive path or the clock's tick), never with the connection lock held —
// they may issue new calls. The response Msg handed to a callback or
// Completion is pooled and valid only during that invocation; Clone it to
// retain it.
type Conn struct {
	cfg  ConnConfig
	pipe Pipe

	mu     sync.Mutex
	slots  []*call // guarded by mu: every record, at the index its ID carries
	free   *call   // guarded by mu: idle records, last retired first
	newest uint32  // guarded by mu: the highest ID issued, as int32(a-b) > 0 orders them
	live   int     // guarded by mu: calls awaiting their response
	closed bool    // guarded by mu

	// The retransmission clock. It is on while its timer is armed or its
	// tick is running; a tick re-arms it while calls are live and turns it
	// off once none is, so ticks never overlap and an idle connection has
	// no timer armed.
	clock    *time.Timer
	clockOn  bool      // guarded by mu
	ticks    uint32    // guarded by mu: ticks so far, compared with call.sentTick
	nextTick time.Time // guarded by mu: when the armed tick is due
	// Tick scratch, reused across ticks; only the running tick touches it.
	resend  []queued
	expired []expiry
}

// NewConn builds a reliable connection over pipe. The owner must route
// inbound datagrams from the peer to Deliver.
func NewConn(pipe Pipe, cfg ConnConfig) *Conn {
	cfg.fill()
	c := &Conn{cfg: cfg, pipe: pipe, newest: ^uint32(0)} // the first ID, 0, is one above
	// The clock is built off: afterSend arms it on the first send.
	//edmlint:allow walltime retransmission deadlines are wall time by contract
	c.clock = time.AfterFunc(time.Hour, c.tick)
	c.clock.Stop()
	return c
}

// Stats snapshots the reliability counters from the connection's metrics
// (shared ConnMetrics aggregate across every Conn they back).
func (c *Conn) Stats() ConnStats {
	m := c.cfg.Metrics
	return ConnStats{
		Sent:       m.Datagrams.Load(),
		Retransmit: m.Retransmits.Load(),
		Responses:  m.Responses.Load(),
		Stray:      m.Stray.Load(),
		Garbage:    m.Garbage.Load(),
		Timeouts:   m.Timeouts.Load(),
	}
}

// Metrics returns the connection's metrics instance (never nil after NewConn).
func (c *Conn) Metrics() *ConnMetrics { return c.cfg.Metrics }

// newCallLocked claims a call slot: the one retired last (a caller with one
// call in flight stays in one record and one server entry), else a new one.
// Nil when all MaxSlots are in flight.
//
// The slot's seq goes up by one, or by as much as it takes for the new ID to
// be the connection's highest yet: successive calls carry rising IDs
// whichever slots they land in, which is how an observer of the datagrams
// (a trace, a capture) tells a request's first copy from a retransmission
// and puts requests in issue order. The server only needs a slot's seq to
// rise, not by how much; a slot left more than 2^18 behind is not pulled up
// (that far is half of what the server accepts as newer) and counts on by
// itself.
func (c *Conn) newCallLocked() *call {
	cl := c.free
	if cl == nil {
		if len(c.slots) == MaxSlots {
			return nil
		}
		//edmlint:allow hotpath free-list miss: allocates only up to the window's high-water mark
		cl = &call{id: uint32(len(c.slots))}
		c.slots = append(c.slots, cl)
	} else {
		c.free = cl.next
		cl.next = nil
		cl.id += MaxSlots // wraps with the uint32; the slot bits stay
		cl.done = false
		cl.attempts = 0
		cl.start = 0
	}
	// lead is the lowest ID of this slot above newest.
	lead := c.newest&^slotMask | cl.id&slotMask
	if lead <= c.newest {
		lead += MaxSlots
	}
	if lead-cl.id < 1<<18<<slotBits {
		cl.id = lead
	}
	if int32(cl.id-c.newest) > 0 {
		c.newest = cl.id
	}
	return cl
}

// freeCallLocked returns a record to the free list. Callers must have saved
// the comp/want/start fields they still need — the record may be handed
// to a new call the moment the lock drops.
//
//edmlint:allow pooledescape the free list is the pool's own storage for retired records
func (c *Conn) freeCallLocked(cl *call) {
	cl.done = true
	cl.comp = nil
	cl.enc = cl.enc[:0]
	cl.next = c.free
	c.free = cl
}

// retireLocked completes a call's bookkeeping: no longer live, recycled
// unless a send still references its buffer (afterSend recycles it then).
// The clock notices the last retirement at its next tick.
func (c *Conn) retireLocked(cl *call) {
	cl.done = true
	c.live--
	if cl.sending == 0 {
		c.freeCallLocked(cl)
	}
}

// CompletionFunc is a callback as a Completion; a nil one drops the
// outcome. A func value is pointer-shaped, so the conversion to the
// interface allocates nothing.
type CompletionFunc func(*Msg, error)

func (f CompletionFunc) Done(m *Msg, err error) {
	if f != nil {
		f(m, err)
	}
}

// CallC transmits a request and invokes comp.Done exactly once: with the
// response, or with ErrTimeout after the retry budget, or with ErrClosed if
// the connection closes first. The assigned message ID is returned; with
// MaxSlots calls already in flight it fails with ErrSlotsBusy. Done may be
// invoked synchronously (before CallC returns) on transports that deliver
// in the caller's stack, such as the loopback. The response Msg is valid
// only during Done; Clone it to retain it. comp must not be nil: a caller
// with a reusable per-op struct allocates nothing per request, and a
// closure goes through CompletionFunc.
//
// m is encoded into a pooled call record and not retained: it may be
// pooled or reused the moment CallC returns.
//
//edmlint:hotpath one CallC per client operation
func (c *Conn) CallC(m *Msg, comp Completion) (uint32, error) {
	if !m.Kind.IsRequest() {
		return 0, fmt.Errorf("%w: %v is not a request", ErrBadMsg, m.Kind)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	cl := c.newCallLocked()
	if cl == nil {
		c.mu.Unlock()
		return 0, ErrSlotsBusy
	}
	id := cl.id
	m.ID = id
	enc, err := m.AppendEncode(cl.enc[:0])
	if err != nil {
		c.freeCallLocked(cl)
		c.mu.Unlock()
		return 0, err
	}
	cl.enc = enc
	cl.want = m.Kind.Response()
	cl.comp = comp
	if c.cfg.NowNS != nil {
		cl.start = c.cfg.NowNS()
	}
	start := cl.start
	c.live++
	mt := c.cfg.Metrics
	cl.attempts = 1
	cl.sending++
	c.mu.Unlock()
	mt.Datagrams.Inc()
	mt.Requests[m.Kind].Inc()
	mt.InFlight.Add(1)
	c.cfg.Trace.Record(uint64(id), telemetry.StageEnqueue, uint8(m.Kind), start, 0)
	// Send outside the lock: a synchronous transport (loopback) delivers
	// the response in this same stack, re-entering Deliver. A transport
	// error is treated like a lost datagram — the retransmission clock
	// will either get it through or time the call out.
	c.pipe.Send(enc)
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(uint64(id), telemetry.StageSend, uint8(m.Kind), c.timestamp(), 0)
	}
	c.afterSend(cl)
	return id, nil
}

// timestamp reads the configured clock; zero when none is wired.
func (c *Conn) timestamp() int64 {
	if c.cfg.NowNS == nil {
		return 0
	}
	return c.cfg.NowNS()
}

// afterSend runs once a send attempt referencing cl.enc has returned: drop
// the send reference, recycle the record if the call completed while the
// datagram was in flight, otherwise stamp it with the clock's tick count and
// arm the clock if it is off. Stamping after the send — not before — matters
// for synchronous transports: the response may already have been delivered
// in the send's own stack, and the record must not look due to a tick racing
// that delivery.
//
//edmlint:hotpath runs once per send attempt; a stamp under the lock already held
func (c *Conn) afterSend(cl *call) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl.sending--
	if cl.done {
		if cl.sending == 0 {
			c.freeCallLocked(cl)
		}
		return
	}
	if c.closed {
		return
	}
	cl.sentTick = c.ticks
	if !c.clockOn {
		// The clock's first tick comes one period after this send, so the
		// send opens a tick interval: counted from the tick before, it is
		// due RetryTimeout from now, not 1.5×RetryTimeout.
		cl.sentTick--
		c.clockOn = true
		//edmlint:allow walltime retransmission deadlines are wall time by contract
		c.nextTick = time.Now().Add(c.cfg.RetryTimeout / 2)
		//edmlint:allow hotpath arms the clock only when an idle connection sends; ticks re-arm it while calls are live
		c.clock.Reset(c.cfg.RetryTimeout / 2)
	}
}

// rearmLocked arms the clock for the tick after the one just run; a tick
// already due fires at once.
func (c *Conn) rearmLocked() {
	//edmlint:allow walltime retransmission deadlines are wall time by contract
	now := time.Now()
	c.nextTick = nextTickDue(c.nextTick, now, c.cfg.RetryTimeout/2)
	c.clock.Reset(c.nextTick.Sub(now))
}

// nextTickDue is when the tick after one due at last is due: a period after
// last, not after the tick ran, so a late firing does not push back the ones
// after it and a retransmission waits for one firing's lateness, not for
// the sum of its ticks'. A clock more than a period behind (a stalled
// process) takes one tick now and keeps time from there: every missed tick
// fired back to back would spend a call's retry budget with no time for
// its response to arrive.
func nextTickDue(last, now time.Time, period time.Duration) time.Time {
	next := last.Add(period)
	if next.Before(now.Add(-period)) {
		return now
	}
	return next
}

// tick is one beat of the retransmission clock. Under the lock it finds
// every live call sent retryTicks or more ticks ago and not inside a send:
// one out of retries is retired for ErrTimeout, any other is pinned (its
// sending count raised) for retransmission in that same hold. A pinned
// record cannot be recycled, so a call completed after the scan costs at
// most one duplicate the server answers from its retained response, and a
// slot retired and reused between scan and send is never retransmitted
// under its new call. After the tick's sends and failures, the clock
// re-arms while calls are live and turns off once none is.
func (c *Conn) tick() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.ticks++
	resend, expired := c.resend[:0], c.expired[:0]
	for _, cl := range c.slots {
		if cl.done || cl.sending > 0 || c.ticks-cl.sentTick < retryTicks {
			continue
		}
		if cl.attempts > c.cfg.MaxRetries {
			expired = append(expired, expiry{comp: cl.comp, id: cl.id, want: cl.want, attempts: cl.attempts})
			c.retireLocked(cl)
			continue
		}
		cl.attempts++
		cl.sending++
		resend = append(resend, queued{id: cl.id, attempt: cl.attempts, cl: cl})
	}
	c.mu.Unlock()

	// One Send per retransmission, from the ticking goroutine; bundling
	// several messages into a datagram is the transport's business.
	if len(resend) > 0 {
		mt := c.cfg.Metrics
		mt.Retransmits.Add(uint64(len(resend)))
		mt.Datagrams.Add(uint64(len(resend)))
		for _, q := range resend {
			c.pipe.Send(q.cl.enc)
		}
		if c.cfg.Trace != nil {
			now := c.timestamp()
			for _, q := range resend {
				c.cfg.Trace.Record(uint64(q.id), telemetry.StageRetry, uint8(q.cl.want), now, uint64(q.attempt))
			}
		}
		for _, q := range resend {
			c.afterSend(q.cl)
		}
	}
	for _, e := range expired {
		c.cfg.Metrics.Timeouts.Inc()
		c.cfg.Metrics.InFlight.Add(-1)
		if c.cfg.Trace != nil {
			c.cfg.Trace.Record(uint64(e.id), telemetry.StageTimeout, uint8(e.want), c.timestamp(), uint64(e.attempts))
		}
		e.comp.Done(nil, fmt.Errorf("%w (after %d attempts)", ErrTimeout, e.attempts))
	}
	clear(resend)
	clear(expired)

	c.mu.Lock()
	c.resend, c.expired = resend[:0], expired[:0]
	switch {
	case c.closed:
	case c.live > 0:
		c.rearmLocked()
	default:
		c.clock.Stop() // a tick driven by hand may find the timer armed
		c.clockOn = false
	}
	c.mu.Unlock()
}

// Deliver is the inbound datagram path: decode, index the slot the ID names,
// compare the ID, complete the call. Unmatched or undecodable datagrams are
// counted and dropped. The decoded Msg is pooled — handed to the callback
// for the duration of the callback only.
//
//edmlint:hotpath one Deliver per response datagram
func (c *Conn) Deliver(p []byte) {
	m := getMsg()
	if err := DecodeInto(m, p); err != nil {
		putMsg(m)
		c.cfg.Metrics.Garbage.Inc()
		return
	}
	c.mu.Lock()
	var cl *call
	if slot := int(m.ID & slotMask); slot < len(c.slots) {
		cl = c.slots[slot]
	}
	if cl == nil || cl.done || cl.id != m.ID || cl.want != m.Kind {
		// A response for a call that already timed out (its slot idle, or
		// reused under a newer seq), a duplicate of one already delivered,
		// or a kind mismatch.
		c.mu.Unlock()
		c.cfg.Metrics.Stray.Inc()
		putMsg(m)
		return
	}
	comp, start := cl.comp, cl.start
	c.retireLocked(cl)
	c.mu.Unlock()
	c.cfg.Metrics.Responses.Inc()
	c.cfg.Metrics.RecvByKind[m.Kind].Inc()
	c.cfg.Metrics.InFlight.Add(-1)
	if c.cfg.Trace != nil {
		now := c.timestamp()
		var lat uint64
		if start != 0 && now > start {
			lat = uint64(now - start)
		}
		c.cfg.Trace.Record(uint64(m.ID), telemetry.StageComplete, uint8(m.Kind), now, lat)
	}
	comp.Done(m, nil)
	putMsg(m)
}

// Pending reports the number of in-flight calls.
func (c *Conn) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// Abort fails every pending call with err (ErrClosed if nil) without
// closing the connection; new calls proceed normally. Use it to quiesce
// in-flight traffic — and its retransmissions — before a teardown
// exchange, so no stale request can be retried into a peer that has
// already forgotten the session.
func (c *Conn) Abort(err error) {
	if err == nil {
		err = ErrClosed
	}
	c.mu.Lock()
	done := c.takePendingLocked()
	c.mu.Unlock()
	c.cfg.Metrics.InFlight.Add(-int64(len(done)))
	for _, comp := range done {
		comp.Done(nil, err)
	}
}

// takePendingLocked retires every live call, in slot order, returning their
// completions (saved off the records, which may be recycled before those
// run), and turns the clock off. A tick already running keeps the clock on
// until it ends, finds no live call and turns it off itself.
func (c *Conn) takePendingLocked() []Completion {
	done := make([]Completion, 0, c.live)
	for _, cl := range c.slots {
		if !cl.done {
			done = append(done, cl.comp)
			c.retireLocked(cl)
		}
	}
	if c.clockOn && c.clock.Stop() {
		c.clockOn = false
	}
	return done
}

// Close fails every pending call with ErrClosed and closes the pipe.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	done := c.takePendingLocked()
	c.mu.Unlock()
	c.cfg.Metrics.InFlight.Add(-int64(len(done)))
	for _, comp := range done {
		comp.Done(nil, ErrClosed)
	}
	return c.pipe.Close()
}

// ResponderConfig tunes the server half.
type ResponderConfig struct {
	// Window is how many call slots the session may use: requests whose ID
	// names a slot at or beyond it are rejected. One response is retained
	// per slot in use, so this also caps the session's duplicate-suppression
	// memory. Zero, or anything above MaxSlots, means MaxSlots. A Conn
	// reuses an idle slot before it opens the next one, so it uses as many
	// slots, from 0 up, as it ever had calls in flight at once.
	Window int
	// Metrics receives the responder counters. A server passes one shared
	// instance to every session's responder, so the series aggregate over
	// sessions. Nil gets a private, unregistered instance.
	Metrics *ResponderMetrics
}

// DefaultResponderWindow is the default number of call slots per session:
// all that a message ID can name.
const DefaultResponderWindow = MaxSlots

// respEntry is the response of one call slot's newest request. It is claimed
// before the handler runs (done false) so a retransmission racing the first
// execution waits for the response instead of re-executing — the guarantee
// that keeps RMWs exactly-once. enc is owned by the entry and is the
// response datagram itself: reserved before the handler runs, filled in
// place by it, sent and replayed from, then rebuilt in place for the slot's
// next request. The waiters count pins an entry (and its enc) while anything
// still uses it: its owner, from the claim until its first transmission has
// returned, and every replay. A slot whose next request arrives while its
// entry is pinned detaches the entry and takes another; whoever drops the
// last pin frees the detached one. On a synchronous transport the client
// decodes in place inside the owner's send, so the pin is also what keeps
// its callback's view of the payload alive.
type respEntry struct {
	enc      []byte
	done     bool       // guarded by mu: response built, safe to replay
	waiters  int        // guarded by mu: the owner until its send returns, plus replays in progress
	detached bool       // guarded by mu: its slot moved on; the last unpin frees it
	next     *respEntry // guarded by mu: free-list link
}

// respSlot is the server's state for one call slot.
type respSlot struct {
	e   *respEntry // response to the slot's newest request; nil before the first
	seq uint32     // that request's use counter
}

// Responder is the server half of the reliable layer for one client session:
// it decodes inbound requests, indexes the call slot each ID names and
// compares the ID's use counter with the newest that slot has seen. Newer
// executes through the handler and its response replaces the slot's; equal
// is a retransmission and gets the retained response again; older is a copy
// of a call the client retired before it reused the slot, and is dropped.
// The compare is modulo 2^20, so a copy must arrive before its slot's seq
// has risen by 2^19, which takes the connection at least that many calls;
// the client sends no copies once a call is over, so only the network could
// hold one that long. The handler runs on the delivering goroutine.
type Responder struct {
	pipe    Pipe
	handler func(req, resp *Msg)
	metrics *ResponderMetrics

	mu      sync.Mutex
	filled  *sync.Cond // signals entries transitioning to done
	waiting int        // guarded by mu: goroutines parked in filled.Wait
	window  int
	slots   []respSlot // guarded by mu: grown on demand, up to window
	free    *respEntry // guarded by mu: detached entries, unpinned since
}

// NewResponder builds the server half over pipe. handler serves one fresh
// request: req carries the decoded request (req.Data views the request
// datagram), resp arrives reset with Kind pre-set to req's response kind and
// the matching ID, and resp.Data a zero-length window onto the payload bytes
// of the response datagram, with room for the request's demand (RREQ.Count;
// responseReserve bytes otherwise). The handler fills in status and payload.
// What it extends the window to — resp.Data[:n], an append within capacity —
// is already in the datagram and is not copied again; any other slice it
// assigns (fresh, grown past the window, a subslice) is copied into place
// when the handler returns. Both messages are pooled: valid only for the
// duration of the call, never retained. Protocol errors are responses with
// a non-OK status.
func NewResponder(pipe Pipe, cfg ResponderConfig, handler func(req, resp *Msg)) *Responder {
	if cfg.Window <= 0 || cfg.Window > MaxSlots {
		cfg.Window = MaxSlots
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewResponderMetrics(nil)
	}
	r := &Responder{pipe: pipe, handler: handler, metrics: cfg.Metrics, window: cfg.Window}
	r.filled = sync.NewCond(&r.mu)
	return r
}

// responseReserve is the payload room for a response whose size the request
// does not state: an RMW result or the HELLO-ACK geometry.
const responseReserve = 16

// reserve sizes buf for the response to m before the handler runs and
// returns it with the handler's payload window: zero-length, at the payload
// offset, ending where the CRC goes. An RREQ states its demand (Count; one
// beyond MaxData gets an error status, not a payload). Growing is the
// entry's one allocation.
//
//edmlint:hotpath one call per fresh request
func reserve(buf []byte, m *Msg) (enc, window []byte) {
	n := responseReserve
	if m.Kind == KindRREQ && m.Count <= MaxData {
		n = int(m.Count)
	}
	if need := headerBytes + n + crcBytes; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	return buf, buf[headerBytes : headerBytes : cap(buf)-crcBytes]
}

// claimLocked makes slot's entry the one for a request newer than any the
// slot has seen, pinned for its owner. An idle entry is rebuilt in place; a
// pinned one — its handler still running for a call the client has since
// aborted, or a send still reading its buffer — is detached and another
// takes the slot.
func (r *Responder) claimLocked(s *respSlot) *respEntry {
	e := s.e
	if e == nil || e.waiters > 0 {
		if e != nil {
			e.detached = true
		}
		if e = r.free; e != nil {
			r.free, e.next = e.next, nil
		} else {
			//edmlint:allow hotpath allocates once per slot in use, and once per entry pinned while its slot moved on
			e = &respEntry{}
		}
		s.e = e
	}
	e.done = false
	e.waiters = 1
	return e
}

// unpinLocked drops one reference to e; the last one off a detached entry
// frees it.
func (r *Responder) unpinLocked(e *respEntry) {
	e.waiters--
	if e.detached && e.waiters == 0 {
		e.detached = false
		e.next = r.free
		r.free = e
	}
}

// Deliver is the inbound datagram path for one client's requests.
//
//edmlint:hotpath one Deliver per request datagram
func (r *Responder) Deliver(p []byte) {
	m := getMsg()
	if err := DecodeInto(m, p); err != nil {
		putMsg(m)
		r.metrics.Garbage.Inc()
		return
	}
	slot, seq := int(m.ID&slotMask), m.ID>>slotBits
	if !m.Kind.IsRequest() || slot >= r.window {
		putMsg(m)
		r.metrics.Rejected.Inc()
		return
	}
	r.metrics.RecvByKind[m.Kind].Inc()
	r.mu.Lock()
	for len(r.slots) <= slot {
		r.slots = append(r.slots, respSlot{})
	}
	s := &r.slots[slot]
	if e := s.e; e != nil {
		switch age := (s.seq - seq) & seqMask; {
		case age == 0:
			// Duplicate: wait out a still-running first execution, then
			// replay its response without re-executing.
			e.waiters++
			for !e.done {
				r.waiting++
				r.filled.Wait()
				r.waiting--
			}
			enc := e.enc
			r.mu.Unlock()
			r.metrics.Duplicates.Inc()
			putMsg(m)
			r.pipe.Send(enc)
			r.mu.Lock()
			r.unpinLocked(e)
			r.mu.Unlock()
			return
		case age <= seqMask/2:
			// The client retired this call before it reused the slot: nobody
			// waits for an answer, and executing it would be a second time.
			r.mu.Unlock()
			r.metrics.Stale.Inc()
			putMsg(m)
			return
		}
	}
	e := r.claimLocked(s)
	s.seq = seq
	scratch := e.enc
	r.mu.Unlock()
	r.metrics.Requests.Inc()

	resp := getMsg()
	resp.Kind = m.Kind.Response()
	resp.ID = m.ID
	scratch, resp.Data = reserve(scratch, m)
	r.handler(m, resp)
	resp.ID = m.ID
	enc, err := resp.AppendEncode(scratch[:0])
	if err != nil {
		// An over-large response is a handler bug; answer with a status
		// the client can surface instead of going silent.
		resp.Reset()
		resp.Kind = m.Kind.Response()
		resp.ID = m.ID
		resp.Status = StatusProto
		enc, _ = resp.AppendEncode(scratch[:0])
	}
	putMsg(resp)
	putMsg(m)
	r.mu.Lock()
	e.enc = enc
	e.done = true
	wake := r.waiting > 0
	r.mu.Unlock()
	if wake {
		r.filled.Broadcast()
	}
	// The owner's pin outlasts its send, which on a synchronous transport
	// re-enters Deliver with the client's next calls.
	r.pipe.Send(enc)
	r.mu.Lock()
	r.unpinLocked(e)
	r.mu.Unlock()
}
