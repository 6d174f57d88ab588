package rmem

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/memctl"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Client errors.
var (
	// ErrTooManyOut is the fail-fast signal when the bounded outstanding
	// window is exhausted, mirroring edm.ErrTooManyOut: the caller is
	// overdriving the node and must back off or widen the window.
	ErrTooManyOut = errors.New("rmem: too many outstanding operations")
	ErrClosed     = errors.New("rmem: client closed")
)

// MaxWindow caps ClientConfig.Window. Every outstanding op holds one of the
// connection's wire.MaxSlots call slots, and the server retains that slot's
// response for as long as the op can be retransmitted, so exactly-once holds
// at any window; the cap is what a server that serves fewer call slots
// (edmd -dup-window) can size itself by.
const MaxWindow = 1024

// handshakeTimeout bounds Connect.
const handshakeTimeout = 5 * time.Second

// ClientConfig tunes the client.
type ClientConfig struct {
	// Window bounds the outstanding operations (default 32, capped at
	// MaxWindow). Requests beyond it fail fast with ErrTooManyOut, like
	// edm.Host's bounded-outstanding-ID discipline.
	Window int
	// Retry tunes the reliable layer; an operation fails with
	// wire.ErrTimeout between RetryTimeout*(MaxRetries+1) and 1.5 times
	// that after its issue (wire.ConnConfig).
	Retry wire.ConnConfig
	// Metrics receives the window/completion counters and per-opcode latency
	// histograms. Nil gets a private, unregistered instance; its embedded
	// ConnMetrics backs the reliable layer unless Retry.Metrics overrides.
	// Several clients may share one instance (a cluster's node clients):
	// the series, Window included, then sum over them.
	Metrics *ClientMetrics
	// NowNS supplies timestamps for the latency histograms and the trace
	// ring (nanoseconds; wall or virtual — a loopback passes its virtual
	// clock to keep runs deterministic). Nil disables latency measurement.
	NowNS func() int64
	// Trace, when non-nil, receives the reliable layer's per-op records.
	Trace *telemetry.TraceRing
}

// ClientStats counts client-side operations.
type ClientStats struct {
	Issued     uint64
	Done       uint64
	Failed     uint64 // completed with an error (timeout or remote status)
	WindowFull uint64 // fail-fast rejections
}

// Client is the compute-node handle to a live memory node: the Memory API
// (Read, Write, RMW), asynchronously pipelined behind a bounded outstanding
// window.
//
// Callback data-lifetime contract: the []byte handed to a Read callback (and
// the *wire.Msg behind it) is owned by the transport and valid only for the
// duration of the callback. Copy it out to retain it; ReadSync already does.
type Client struct {
	conn    *wire.Conn
	cfg     ClientConfig
	metrics *ClientMetrics
	// token identifies this client incarnation in its HELLO: the server
	// resets per-remote session state when the token changes (client
	// restart on the same port) but not on a retransmitted HELLO carrying
	// the same token.
	token [8]byte

	mu       sync.Mutex
	inflight int        // guarded by mu
	freeOps  *pendingOp // guarded by mu: idle completion records, one per window slot ever used
	geo      Geometry   // guarded by mu
	closed   bool       // guarded by mu
}

// NewClient builds a client over pipe. Route inbound datagrams to Deliver
// (loopback: lb.BindClient(c.Deliver); UDP: go udpClient.Run(c.Deliver)),
// then call Connect to perform the HELLO handshake.
func NewClient(pipe wire.Pipe, cfg ClientConfig) *Client {
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.Window > MaxWindow {
		cfg.Window = MaxWindow
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewClientMetrics(nil)
	}
	// The reliable layer inherits the client's metrics, clock, and trace
	// ring unless the Retry config wires its own.
	if cfg.Retry.Metrics == nil {
		cfg.Retry.Metrics = cfg.Metrics.Conn
	}
	if cfg.Retry.NowNS == nil {
		cfg.Retry.NowNS = cfg.NowNS
	}
	if cfg.Retry.Trace == nil {
		cfg.Retry.Trace = cfg.Trace
	}
	c := &Client{conn: wire.NewConn(pipe, cfg.Retry), cfg: cfg, metrics: cfg.Metrics}
	rand.Read(c.token[:])
	return c
}

// Deliver is the inbound datagram path; wire it to the transport.
func (c *Client) Deliver(p []byte) { c.conn.Deliver(p) }

// Connect performs the HELLO handshake and adopts the server's advertised
// geometry. The geometry is decoded inside the completion callback: the
// response message is pooled and only valid for the callback's duration.
//
//edmlint:allow walltime the handshake deadline bounds a real network exchange
func (c *Client) Connect() error {
	type result struct {
		geo Geometry
		err error
	}
	ch := make(chan result, 1)
	if _, err := c.conn.CallC(&wire.Msg{Kind: wire.KindHello, Data: c.token[:]}, wire.CompletionFunc(func(m *wire.Msg, err error) {
		if err == nil {
			err = m.Status.Err()
		}
		if err != nil {
			ch <- result{err: fmt.Errorf("rmem: handshake: %w", err)}
			return
		}
		geo, err := DecodeGeometry(m.Data)
		ch <- result{geo: geo, err: err}
	})); err != nil {
		return err
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return r.err
		}
		c.mu.Lock()
		c.geo = r.geo
		c.mu.Unlock()
		return nil
	case <-time.After(handshakeTimeout):
		return fmt.Errorf("rmem: handshake: %w", wire.ErrTimeout)
	}
}

// Geometry reports the server's advertised slab (valid after Connect).
func (c *Client) Geometry() Geometry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.geo
}

// Stats snapshots the operation counters from the client's metrics.
func (c *Client) Stats() ClientStats {
	m := c.metrics
	return ClientStats{
		Issued:     m.Issued.Load(),
		Done:       m.Done.Load(),
		Failed:     m.Failed.Load(),
		WindowFull: m.WindowFull.Load(),
	}
}

// Metrics returns the client's metrics instance (never nil after NewClient).
func (c *Client) Metrics() *ClientMetrics { return c.metrics }

// ConnStats returns the underlying reliable layer's counters
// (retransmissions, timeouts, stray datagrams).
func (c *Client) ConnStats() wire.ConnStats { return c.conn.Stats() }

// Pending reports the in-flight operation count.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// acquire claims a window slot and hands out the completion record that
// goes with it. It never waits: after Close it fails with ErrClosed, and
// with the window full it fails with ErrTooManyOut, counted in WindowFull.
func (c *Client) acquire() (*pendingOp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.inflight >= c.cfg.Window {
		c.metrics.WindowFull.Inc()
		return nil, ErrTooManyOut
	}
	c.inflight++
	c.metrics.Window.Add(1)
	c.metrics.Issued.Inc()
	o := c.freeOps
	if o == nil {
		//edmlint:allow hotpath free-list miss: allocates only up to the window's high-water mark
		return &pendingOp{c: c}, nil
	}
	c.freeOps, o.next = o.next, nil
	return o, nil
}

// release frees o's window slot, takes the record back and updates the
// completion counters. Callers have saved the callback they still need.
//
//edmlint:allow pooledescape the free list is the records' own storage between ops
func (c *Client) release(o *pendingOp, failed bool) {
	o.cbRead, o.cbWrite, o.cbRMW = nil, nil, nil
	c.mu.Lock()
	o.next = c.freeOps
	c.freeOps = o
	c.inflight--
	c.metrics.Window.Add(-1)
	c.mu.Unlock()
	if failed {
		c.metrics.Failed.Inc()
	} else {
		c.metrics.Done.Inc()
	}
}

// pendingOp is the completion record of one in-flight operation, handed out
// with its window slot: it implements wire.Completion so the hot path needs
// no per-op closure. Exactly one cb* field is set; Done dispatches to it
// after giving the record back.
//
//edmlint:owned callback
type pendingOp struct {
	c     *Client
	kind  wire.Kind
	start int64
	// Exactly one of these is non-nil per use.
	cbRead  func([]byte, error)
	cbWrite func(error)
	cbRMW   func(uint64, error)
	next    *pendingOp // guarded by mu (the client's): free-list link
}

// Done implements wire.Completion. The response r is pooled by the reliable
// layer and valid only for this call, so every retaining path copies.
//
//edmlint:hotpath one invocation per completed op
func (o *pendingOp) Done(r *wire.Msg, err error) {
	c := o.c
	if err == nil {
		err = r.Status.Err()
	}
	if c.cfg.NowNS != nil && err == nil {
		if h := c.metrics.Latency[o.kind]; h != nil {
			h.Observe(c.cfg.NowNS() - o.start)
		}
	}
	// Give the record back before dispatching: the callback may issue a
	// follow-up op, and the saved locals keep this completion intact.
	cbRead, cbWrite, cbRMW := o.cbRead, o.cbWrite, o.cbRMW
	c.release(o, err != nil)
	switch {
	case cbRead != nil:
		if err != nil {
			cbRead(nil, err)
			return
		}
		cbRead(r.Data, nil)
	case cbWrite != nil:
		cbWrite(err)
	case cbRMW != nil:
		if err != nil {
			cbRMW(0, err)
			return
		}
		if len(r.Data) != 8 {
			//edmlint:allow hotpath cold path: the server sent a malformed RMW result
			cbRMW(0, fmt.Errorf("%w: RMW result %d bytes", wire.ErrBadMsg, len(r.Data)))
			return
		}
		cbRMW(binary.LittleEndian.Uint64(r.Data), nil)
	}
}

// issue submits one request for the op that acquire handed out and whose
// callback the caller has set. It consumes o in every outcome: on success
// the reliable layer owns it until Done fires; on error it goes back with
// its window slot and the callback is never invoked. m is the caller's, on
// its stack: the reliable layer encodes it before returning and keeps no
// reference.
//
//edmlint:hotpath every client op funnels through here
func (c *Client) issue(m *wire.Msg, o *pendingOp) error {
	o.kind = m.Kind
	o.start = 0
	if c.cfg.NowNS != nil {
		o.start = c.cfg.NowNS()
	}
	if _, err := c.conn.CallC(m, o); err != nil {
		// Submit failed, so the completion will never fire.
		c.release(o, true)
		return err
	}
	return nil
}

// Read issues an asynchronous remote read of n bytes at addr; cb fires with
// the data or an error (wire.ErrTimeout past the per-ID deadline). It fails
// fast with ErrTooManyOut when the window is exhausted. The data slice is
// only valid for the duration of the callback — copy to retain.
//
//edmlint:hotpath
//edmlint:owned callback the data slice aliases the pooled response Msg
func (c *Client) Read(addr uint64, n int, cb func([]byte, error)) error {
	o, err := c.acquire()
	if err != nil {
		return err
	}
	o.cbRead = cb
	m := wire.Msg{Kind: wire.KindRREQ, Addr: addr, Count: uint32(n)}
	return c.issue(&m, o)
}

// Write issues an asynchronous remote write; cb fires once the server acks.
// data is captured into the datagram before Write returns.
//
//edmlint:hotpath
func (c *Client) Write(addr uint64, data []byte, cb func(error)) error {
	o, err := c.acquire()
	if err != nil {
		return err
	}
	o.cbWrite = cb
	m := wire.Msg{Kind: wire.KindWREQ, Addr: addr, Count: uint32(len(data)), Data: data}
	return c.issue(&m, o)
}

// RMW issues an asynchronous atomic read-modify-write; cb receives the
// 64-bit result (CAS: 1 swapped / 0 not; others: the previous value).
//
//edmlint:hotpath
func (c *Client) RMW(addr uint64, op memctl.RMWOp, args []uint64, cb func(uint64, error)) error {
	o, err := c.acquire()
	if err != nil {
		return err
	}
	o.cbRMW = cb
	m := wire.Msg{Kind: wire.KindRMWREQ, Addr: addr, Op: uint8(op), Args: args}
	return c.issue(&m, o)
}

// ReadSync, WriteSync and RMWSync are the blocking forms (see the package
// functions of the same names).
func (c *Client) ReadSync(addr uint64, n int) ([]byte, error) { return ReadSync(c, addr, n) }

// WriteSync is the blocking form of Write.
func (c *Client) WriteSync(addr uint64, data []byte) error { return WriteSync(c, addr, data) }

// RMWSync is the blocking form of RMW.
func (c *Client) RMWSync(addr uint64, op memctl.RMWOp, args ...uint64) (uint64, error) {
	return RMWSync(c, addr, op, args...)
}

// Close tears the session down (best-effort BYE) and fails any pending
// operations with wire.ErrClosed.
//
//edmlint:allow walltime the BYE grace period waits on a real round trip
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// Quiesce in-flight ops (and their retransmissions) before the
	// BYE: the server forgets the session on BYE, and a stale request
	// retried into a fresh session would re-execute — a duplicate RMW.
	c.conn.Abort(wire.ErrClosed)
	// Best-effort teardown: give the BYE one short round trip, then close
	// regardless (the server's session state is reclaimable either way).
	wait := c.cfg.Retry.RetryTimeout
	if wait <= 0 || wait > 250*time.Millisecond {
		wait = 250 * time.Millisecond
	}
	ch := make(chan struct{}, 1)
	if _, err := c.conn.CallC(&wire.Msg{Kind: wire.KindBye}, wire.CompletionFunc(func(*wire.Msg, error) {
		ch <- struct{}{}
	})); err == nil {
		select {
		case <-ch:
		case <-time.After(wait):
		}
	}
	return c.conn.Close()
}
