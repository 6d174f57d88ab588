//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Span names, one per boundary the benchmark can see from outside.
type spanName uint8

const (
	spOp            spanName = iota // API call -> API return (inline targets: the whole op)
	spIssue                         // API entry (or previous send's return) -> Pipe.Send entry
	spPipeSend                      // the client pipe's Send/SendBatch
	spServerDeliver                 // Responder.Deliver
	spHandle                        // rmem.Server.Handle
	spServerSend                    // the reply pipe's Send
	spClientDeliver                 // Client.Deliver
	spCallback                      // the benchmark's completion callback
	numSpans
)

var spanNames = [numSpans]string{"op", "issue", "pipe.send", "server.deliver",
	"rmem.server.handle", "server.send", "client.deliver", "callback"}

// span is one recorded interval. Parent indexes the lane's span buffer
// (-1: none); Op is the driver's op sequence number, shared by every span
// of one request; Node is the cluster node index (-1 outside a cluster).
type span struct {
	Name   spanName
	Node   int8
	Op     uint32
	Parent int32
	Start  int64
	End    int64
}

type frame struct {
	name  spanName
	start int64
	child int64 // summed duration of closed children
	mark  int64 // end of the last closed child, or start
	idx   int32 // position in the span buffer, -1 when not recorded
}

// lane is the trace state of one goroutine: a stack of open spans, online
// self-time totals per span name (self = duration minus children), and a
// preallocated span buffer that keeps the first ops in full.
type lane struct {
	stack [32]frame
	depth int
	self  [numSpans]int64
	count [numSpans]int64
	spans []span
	op    uint32
	keep  bool // the current op still fits the buffer
}

func (l *lane) begin(name spanName, node int8, now int64) {
	if l.depth == len(l.stack) {
		return
	}
	f := &l.stack[l.depth]
	*f = frame{name: name, start: now, mark: now, idx: -1}
	if l.keep && len(l.spans) < cap(l.spans) {
		parent := int32(-1)
		if l.depth > 0 {
			parent = l.stack[l.depth-1].idx
		}
		f.idx = int32(len(l.spans))
		l.spans = append(l.spans, span{Name: name, Node: node, Op: l.op, Parent: parent, Start: now})
	}
	l.depth++
}

func (l *lane) end(now int64) {
	if l.depth == 0 {
		return
	}
	l.depth--
	f := &l.stack[l.depth]
	dur := now - f.start
	l.self[f.name] += dur - f.child
	l.count[f.name]++
	if f.idx >= 0 {
		l.spans[f.idx].End = now
	}
	if l.depth > 0 {
		p := &l.stack[l.depth-1]
		p.child += dur
		p.mark = now
	}
}

// leaf records a closed childless span [start, now) under the open frame.
func (l *lane) leaf(name spanName, node int8, start, now int64) {
	l.begin(name, node, start)
	l.end(now)
}

// idRing is how many in-flight wire IDs the UDP round-trip table tracks;
// far above rmem.MaxWindow, so live IDs never alias.
const idRing = 4096

// tracer holds the shims' state for one traced repetition. On inline
// targets every span nests on the issuing goroutine (lane 0). Over UDP the
// receive path runs on the read loop's goroutine (lane 1) and the two
// halves of an op are joined through the wire message ID.
type tracer struct {
	async bool
	lanes [2]lane

	// UDP only: per wire ID, when its datagram entered and left Send and
	// which op it carries. The receiver may see the response before the
	// sender's Send has returned, hence atomics and the sendIn fallback.
	sendIn, sendOut [idRing]atomic.Int64
	opOf            [idRing]atomic.Uint32
	rttSum, rttN    int64
	sendCalls       int64
	sendDgrams      int64
	cur             uint32     // op being issued (lane 0)
	opDur           int64      // summed op span durations
	stopped         bool       // set once the measured interval is over
	recvMu          sync.Mutex // UDP only: guards lane 1 and the rtt sums

	// UDP only. Lane 0 belongs to the issuing goroutine, but Conn also sends
	// from its retry timers' goroutines: retransmissions, and now and then the
	// first copy of a request, when a stale timer on a recycled call record
	// fires between the issuer registering the request and sending it. Conn
	// numbers requests consecutively, so the first datagram to arrive with an
	// ID newer than newestID is that request's one traced send, whichever
	// goroutine brings it; every other copy is forwarded without a span
	// (wire.conn.retransmits counts them). sendMu makes that decision atomic
	// and is held across the traced send. A timer can bring a new ID only
	// while the issuer is between registering it (under Conn's lock) and its
	// own Send, where it then waits for sendMu: the two never touch lane 0 at
	// the same time.
	sendMu   sync.Mutex
	sentAny  bool   // guarded by sendMu
	newestID uint32 // guarded by sendMu
}

func newTracer(async bool, spanCap int) *tracer {
	t := &tracer{async: async}
	for i := range t.lanes {
		t.lanes[i].spans = make([]span, 0, spanCap)
	}
	return t
}

func (t *tracer) recvLane() *lane {
	if t.async {
		return &t.lanes[1]
	}
	return &t.lanes[0]
}

func (t *tracer) beginOp(op uint32, now int64) {
	l := &t.lanes[0]
	l.op, t.cur = op, op
	l.keep = len(l.spans)+64 <= cap(l.spans)
	l.begin(spOp, -1, now)
}

func (t *tracer) endOp() {
	l, now := &t.lanes[0], nowNS()
	if l.depth > 0 {
		t.opDur += now - l.stack[l.depth-1].start
	}
	l.end(now)
}

func (t *tracer) beginCallback(now int64) { t.recvLane().begin(spCallback, -1, now) }

func (t *tracer) endCallback() { t.recvLane().end(nowNS()) }

// wireID reads the message ID out of an encoded datagram (version, kind,
// status, op, nargs, then the little-endian ID).
func wireID(p []byte) uint32 {
	if len(p) < 9 {
		return 0
	}
	return binary.LittleEndian.Uint32(p[5:])
}

// tracedPipe wraps a client or reply pipe. name is spPipeSend for client
// pipes and spServerSend for reply pipes.
type tracedPipe struct {
	t    *tracer
	pipe wire.Pipe
	name spanName
	node int8
}

// copyLocked reports whether a datagram carrying id has been here before,
// and notes id as the newest if not.
func (t *tracer) copyLocked(id uint32) bool {
	if t.sentAny && int32(id-t.newestID) <= 0 {
		return true
	}
	t.sentAny, t.newestID = true, id
	return false
}

func (p *tracedPipe) enter(now int64) *lane {
	l := &p.t.lanes[0]
	if p.name == spPipeSend && l.depth > 0 {
		f := &l.stack[l.depth-1]
		l.leaf(spIssue, p.node, f.mark, now)
	}
	l.begin(p.name, p.node, now)
	return l
}

func (p *tracedPipe) Send(b []byte) error {
	t := p.t
	if !t.async {
		l := p.enter(nowNS())
		err := p.pipe.Send(b)
		l.end(nowNS())
		return err
	}
	id := wireID(b)
	t.sendMu.Lock()
	if t.copyLocked(id) {
		t.sendMu.Unlock()
		return p.pipe.Send(b)
	}
	defer t.sendMu.Unlock()
	now := nowNS()
	l := p.enter(now)
	i := id % idRing
	t.opOf[i].Store(t.cur)
	t.sendOut[i].Store(0)
	t.sendIn[i].Store(now)
	err := p.pipe.Send(b)
	now = nowNS()
	t.sendOut[i].Store(now)
	t.sendCalls++
	t.sendDgrams++
	l.end(now)
	return err
}

// SendBatch forwards a corked flush, which carries first copies only. The
// async Read/Write/RMW API never corks, so this runs only for rmem.Batch
// users; it is here so the wrapper keeps the wrapped pipe's batching ability.
func (p *tracedPipe) SendBatch(bs [][]byte) error {
	bp, ok := p.pipe.(wire.BatchPipe)
	if !ok {
		for _, b := range bs {
			if err := p.Send(b); err != nil {
				return err
			}
		}
		return nil
	}
	t := p.t
	if !t.async {
		l := p.enter(nowNS())
		err := bp.SendBatch(bs)
		l.end(nowNS())
		return err
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	now := nowNS()
	l := p.enter(now)
	for _, b := range bs {
		id := wireID(b)
		t.copyLocked(id)
		t.opOf[id%idRing].Store(t.cur)
		t.sendOut[id%idRing].Store(0)
		t.sendIn[id%idRing].Store(now)
	}
	err := bp.SendBatch(bs)
	now = nowNS()
	for _, b := range bs {
		t.sendOut[wireID(b)%idRing].Store(now)
	}
	t.sendCalls++
	t.sendDgrams += int64(len(bs))
	l.end(now)
	return err
}

func (p *tracedPipe) Close() error { return p.pipe.Close() }

// tracedDeliver wraps a Deliver func: spServerDeliver around a responder's,
// spClientDeliver around a client's.
func (t *tracer) tracedDeliver(name spanName, node int8, deliver func([]byte)) func([]byte) {
	if name == spClientDeliver && t.async {
		l := &t.lanes[1]
		return func(p []byte) {
			// The lock is uncontended (one read loop); it exists so stop and
			// reset on the issuing goroutine wait out a Deliver still
			// unwinding after its callback freed the last window slot.
			t.recvMu.Lock()
			defer t.recvMu.Unlock()
			now := nowNS()
			i := wireID(p) % idRing
			out := t.sendOut[i].Load()
			if out == 0 {
				out = t.sendIn[i].Load()
			}
			if out != 0 && now >= out {
				t.rttSum += now - out
				t.rttN++
			}
			l.op = t.opOf[i].Load()
			l.keep = !t.stopped && len(l.spans)+8 <= cap(l.spans)
			l.begin(name, node, now)
			deliver(p)
			l.end(nowNS())
		}
	}
	l := &t.lanes[0]
	return func(p []byte) {
		l.begin(name, node, nowNS())
		deliver(p)
		l.end(nowNS())
	}
}

// tracedHandler wraps rmem.Server.Handle.
func (t *tracer) tracedHandler(node int8, h func(req, resp *wire.Msg)) func(req, resp *wire.Msg) {
	l := &t.lanes[0]
	return func(req, resp *wire.Msg) {
		l.begin(spHandle, node, nowNS())
		h(req, resp)
		l.end(nowNS())
	}
}

// traceTotals is the tracer's aggregate state at one instant.
type traceTotals struct {
	self, count                                [numSpans]int64 // over both lanes
	rttSum, rttN, sendCalls, sendDgrams, opDur int64
}

// stop freezes the trace at the end of the measured interval: it returns
// the totals so far and keeps later traffic through the shims (the
// verification sweep) out of the span buffers.
func (t *tracer) stop() traceTotals {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	tt := traceTotals{rttSum: t.rttSum, rttN: t.rttN, sendCalls: t.sendCalls, sendDgrams: t.sendDgrams, opDur: t.opDur}
	for i := range t.lanes {
		l := &t.lanes[i]
		for n := range l.self {
			tt.self[n] += l.self[n]
			tt.count[n] += l.count[n]
		}
		l.keep = false
	}
	t.stopped = true
	return tt
}

// reset clears the aggregates and the span buffers (called once warm-up is
// over, so the trace covers the measured interval only).
func (t *tracer) reset() {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	for i := range t.lanes {
		l := &t.lanes[i]
		l.self, l.count = [numSpans]int64{}, [numSpans]int64{}
		l.spans = l.spans[:0]
	}
	t.rttSum, t.rttN, t.sendCalls, t.sendDgrams, t.opDur = 0, 0, 0, 0, 0
}

type spanJSON struct {
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	Node   int    `json:"node"`
	Op     uint32 `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeJSON dumps the recorded spans; parent indexes the file's span list.
func (t *tracer) writeJSON(path, workload string) error {
	out := struct {
		Workload string     `json:"workload"`
		Clock    string     `json:"clock"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Clock: "ns since the generator process started"}
	for li := range t.lanes {
		base := int32(len(out.Spans))
		for _, s := range t.lanes[li].spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out.Spans = append(out.Spans, spanJSON{spanNames[s.Name], li, int(s.Node), s.Op, s.Parent, s.Start, s.End})
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
