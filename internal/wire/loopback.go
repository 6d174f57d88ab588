package wire

import (
	"sync"

	"repro/internal/sim"
)

// Dir is the direction of a loopback datagram.
type Dir int

const (
	// ToServer is the client->server (request) direction.
	ToServer Dir = iota
	// ToClient is the server->client (response) direction.
	ToClient
)

// Fault is a fault hook's verdict for one datagram.
type Fault int

const (
	// FaultNone delivers the datagram unharmed.
	FaultNone Fault = iota
	// FaultDrop loses the datagram; the reliable layer's retransmission
	// clock is the only way forward.
	FaultDrop
	// FaultCorrupt flips one bit before delivery; the receiver's CRC check
	// detects it and drops the datagram, so a corruption behaves like a
	// drop with an extra counted detection.
	FaultCorrupt
)

// What one datagram charges the virtual clock: loopBaseLatency, the scale of
// one EDM fabric traversal, plus loopPerByte per byte, a 100 Gbps line rate.
const (
	loopBaseLatency = 300 * sim.Nanosecond
	loopPerByte     = 80 * sim.Picosecond
)

// LoopbackConfig tunes the in-process transport.
type LoopbackConfig struct {
	// Fault, when non-nil, adjudicates every datagram. It runs with the
	// loopback lock held and must not call back into the loopback.
	Fault func(now sim.Time, dir Dir, p []byte) Fault
	// Clock, when non-nil, is a shared virtual clock: several loopbacks
	// charging one clock model parallel links of one deterministic fabric
	// (the cluster backend's N memory-node transports). Nil gets a private
	// clock, the single-link behaviour.
	Clock *VirtualClock
}

// VirtualClock is a monotonic virtual time source shared by one or more
// loopbacks. Each delivered or dropped datagram charges it, so with a
// closed-loop driver every reading is a pure function of the datagram
// sequence — the property that keeps seeded loopback runs byte-identical
// even when the address space is striped over many transports.
type VirtualClock struct {
	mu  sync.Mutex
	now sim.Time // guarded by mu
}

// NewVirtualClock builds a clock at time zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now reads the clock.
func (c *VirtualClock) Now() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AdvanceTo moves the clock forward to t (no-op if t is in the past).
func (c *VirtualClock) AdvanceTo(t sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

// advance charges d to the clock and returns the new reading.
//
//edmlint:hotpath one charge per loopback datagram
func (c *VirtualClock) advance(d sim.Time) sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// LoopbackStats counts loopback datagram outcomes.
type LoopbackStats struct {
	Delivered uint64
	Dropped   uint64
	Corrupted uint64
}

// Loopback is an in-process transport pair implementing the same Pipe
// interface as the UDP endpoints, for deterministic tests and the scenario
// runner's live backend. Delivery is synchronous in the sender's goroutine,
// and latency is charged to a virtual clock instead of wall time: with a
// single-threaded (closed-loop) client, every measured latency is a pure
// function of the datagram sizes exchanged, so runs are byte-reproducible.
// The retransmission clock remains real-time; a retried datagram charges the
// virtual clock once per attempt that is actually delivered or dropped,
// which keeps virtual measurements deterministic even under injected loss.
type Loopback struct {
	mu     sync.Mutex
	cfg    LoopbackConfig
	clock  *VirtualClock   // shared or private; charged under mu (lock order: mu -> clock.mu)
	recv   [2]func([]byte) // indexed by Dir: ToServer, ToClient; guarded by mu
	stats  LoopbackStats   // guarded by mu
	closed bool            // guarded by mu
}

// NewLoopback builds the pair. Bind the two receive paths with BindServer
// and BindClient before sending.
func NewLoopback(cfg LoopbackConfig) *Loopback {
	clock := cfg.Clock
	if clock == nil {
		clock = NewVirtualClock()
	}
	return &Loopback{cfg: cfg, clock: clock}
}

// BindServer routes client->server datagrams (typically Responder.Deliver).
func (l *Loopback) BindServer(recv func([]byte)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recv[ToServer] = recv
}

// BindClient routes server->client datagrams (typically Conn.Deliver).
func (l *Loopback) BindClient(recv func([]byte)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recv[ToClient] = recv
}

// Now reads the virtual clock.
func (l *Loopback) Now() sim.Time { return l.clock.Now() }

// AdvanceTo moves the virtual clock forward to t (no-op if t is in the
// past); the load generator uses it to honour trace arrival times.
func (l *Loopback) AdvanceTo(t sim.Time) { l.clock.AdvanceTo(t) }

// Stats returns a snapshot of the datagram counters.
func (l *Loopback) Stats() LoopbackStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// end is one side's Pipe.
type end struct {
	l   *Loopback
	dir Dir // direction this end sends in
}

// ClientPipe returns the client's Pipe (sends toward the server).
func (l *Loopback) ClientPipe() Pipe { return &end{l, ToServer} }

// ServerPipe returns the server's Pipe (sends toward the client).
func (l *Loopback) ServerPipe() Pipe { return &end{l, ToClient} }

// Send charges the virtual clock, runs the fault hook, and delivers the
// datagram synchronously.
//
//edmlint:hotpath one Send per datagram on the loopback backend
func (e *end) Send(p []byte) error {
	l := e.l
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	now := l.clock.advance(loopBaseLatency + sim.Time(len(p))*loopPerByte)
	verdict := FaultNone
	if l.cfg.Fault != nil {
		verdict = l.cfg.Fault(now, e.dir, p)
	}
	recv := l.recv[e.dir]
	out := p
	switch verdict {
	case FaultDrop:
		l.stats.Dropped++
		l.mu.Unlock()
		return nil
	case FaultCorrupt:
		l.stats.Corrupted++
		l.stats.Delivered++
		// Only the fault path copies: the bit flip must not corrupt the
		// sender's buffer, which the reliable layer may retransmit intact.
		//edmlint:allow hotpath fault injection must not mutate the sender's buffer
		out = append([]byte(nil), p...)
		out[len(out)/2] ^= 0x10
	default:
		// Receivers decode in place (Msg.Data views the datagram) and
		// never retain it, so the clean path forwards the sender's buffer
		// without a per-op copy. The sender keeps that buffer alive and
		// unchanged until Send returns: call.sending pins a request,
		// respEntry.waiters a response.
		l.stats.Delivered++
	}
	l.mu.Unlock()
	if recv != nil {
		recv(out)
	}
	return nil
}

func (e *end) Close() error {
	l := e.l
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
