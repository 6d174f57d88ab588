//edmlint:allow walltime the UDP transport is the real-time boundary: socket timestamps and idle reclamation are wall time by nature

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// A bundle is one datagram carrying several messages to one peer:
//
//	bundleMarker | len0 (u16 LE) | msg0 | len1 | msg1 | ...
//
// Every message starts with its Version byte, which is never bundleMarker,
// so a datagram is a bundle exactly when its first byte is the marker; any
// other datagram is one plain message. A sender bundles only what queued to
// one peer between cork and flush (see txBatch), so a lone message still
// leaves as a plain datagram, byte for byte what a peer from before bundling
// sends. Such a peer drops a bundle at its version check and never misparses
// it: mixed-version peers are unsupported, not corrupted.
const (
	bundleMarker   = 0xB5
	bundleLenBytes = 2
	// bundleHead is the marker and the first entry's length.
	bundleHead = 1 + bundleLenBytes
	// maxBundle is one Ethernet frame's UDP payload (1500 - 20 IPv4 - 8
	// UDP): bundling never builds a datagram IP would fragment.
	maxBundle = 1472
)

// frames is a cursor over the messages one received datagram carries: the
// datagram itself when it is plain, each entry in order when it is a bundle.
// The walk stops at the first length prefix that overruns the datagram: the
// frames before it are delivered, nothing after. A frame is a
// capacity-clipped view of the datagram, decoded and CRC-checked on its own
// like any datagram. Every build's receive paths split with it.
//
//	for f := framesOf(p); f.ok; f.next() { deliver(f.cur) }
type frames struct {
	cur, rest []byte // the current frame; the bundle entries after it
	ok        bool   // cur is a frame
}

func framesOf(p []byte) frames {
	if len(p) > 0 && p[0] == bundleMarker {
		f := frames{rest: p[1:]}
		f.next()
		return f
	}
	return frames{cur: p, ok: true}
}

// next advances to the following frame; ok turns false once none is left.
func (f *frames) next() {
	if f.ok = len(f.rest) >= bundleLenBytes; !f.ok {
		return
	}
	end := bundleLenBytes + int(binary.LittleEndian.Uint16(f.rest))
	if f.ok = end <= len(f.rest); f.ok {
		f.cur, f.rest = f.rest[bundleLenBytes:end:end], f.rest[end:]
	}
}

// UDPClient is the client-side Pipe over a connected UDP socket. Its sends
// go through the same corked arena as the server's replies (txBatch):
// outside Run's receive batch (and the refill yield after one) a message
// leaves at once, inside it the batch's messages leave together when it
// ends, bundled (see bundleMarker), in one sendmmsg on platforms that have
// it.
type UDPClient struct {
	conn *net.UDPConn
	tx   *txBatch
	rx   UDPRxMetrics // what Run's receiver counts

	mu     sync.Mutex
	closed bool
}

// DialUDP connects a UDP socket to addr ("host:port"). Call Run with the
// receive path (typically Conn.Deliver) to start the read loop.
func DialUDP(addr string) (*UDPClient, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	u, err := newUDPClient(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return u, nil
}

// newUDPClient wraps a connected socket.
func newUDPClient(conn *net.UDPConn) (*UDPClient, error) {
	u := &UDPClient{conn: conn, rx: newUDPRxMetrics(nil)}
	var err error
	u.tx, err = newTxBatch(conn, newUDPTxMetrics(nil))
	return u, err
}

// Run is the read loop: it routes every message of every inbound datagram
// (each frame of a bundle) to deliver until the socket closes, and returns
// then. On Linux it waits poll-then-park (see pollWindow): for a window
// after each response it polls the socket, yielding the P and the CPU on
// every empty poll, so the next response of a request/response exchange
// needs no wake-up; idle past the window, it blocks in the netpoller. A
// refused datagram (ICMP port-unreachable: the server is down or restarting)
// does not end the loop; the socket hears the server again once it is back.
// Datagrams arrive in receive buffers the loop reuses, so deliver must not
// retain its argument past the call (Conn.Deliver decodes in place and runs
// the completion to its end before returning, satisfying this).
//
// Each receive batch is corked: what the completions send — and what
// issuers they woke send meanwhile — leaves in one flush when the batch
// ends. After a batch that delivered more than one message the cork also
// holds over the batch's refill (the requests an issuer those completions
// freed sends next), however the Go scheduler orders that issuer and the
// loop: the loop yields the P once, corked, before the batch's flush, and
// again, corked, at the first empty poll after it, flushing when that yield
// returns. The second yield is there because one Gosched is not a hand-off:
// it puts the loop on the global run queue, which the scheduler serves ahead
// of the woken issuer every 61st tick; the loop then resumes first, and the
// issuer would send its refill uncorked, one datagram per request.
//
// After a batch of one message the loop yields the P once, uncorked, right
// after the flush and before it polls again: the issuer that completion woke
// (a window-1 caller waiting on its one op) sends its next request at once,
// instead of after an empty recvmmsg and the empty poll's yield. With one P
// the hand-off holds because the issuer woken from this goroutine waits on
// the P's local queue and the yielding loop goes to the global one, served
// first only on every 61st tick (then the issuer runs at the empty poll's
// yield, as before). Uncorked, that request leaves the moment Send is
// called, so neither the lone request nor the issuer's tail work waits on
// the other; with nothing else runnable the yield costs one pass through the
// scheduler. Every later empty poll also yields uncorked.
func (u *UDPClient) Run(deliver func([]byte)) {
	r, err := newBatchReceiver(u.conn, false, u.rx)
	if err != nil {
		return
	}
	refill := false // the last batch delivered several messages; its refill may be pending
	r.yield = func() {
		if !refill {
			runtime.Gosched()
			return
		}
		refill = false
		u.tx.cork()
		runtime.Gosched()
		u.tx.flush()
	}
	for {
		n, err := r.recvBatch()
		if err != nil {
			return
		}
		u.tx.cork()
		msgs := 0
		for i := 0; i < n; i++ {
			for f := framesOf(r.pkt(i)); f.ok; f.next() {
				deliver(f.cur)
				msgs++
			}
		}
		if refill = msgs > 1; refill {
			runtime.Gosched()
		}
		u.tx.flush()
		if msgs == 1 {
			runtime.Gosched()
		}
	}
}

// RxStats reports how Run has waited so far: parks in the netpoller, and
// polls that found the socket empty (always 0 off Linux).
func (u *UDPClient) RxStats() (parks, emptyPolls uint64) {
	return u.rx.Parks.Load(), u.rx.EmptyPolls.Load()
}

// TxStats reports what Send has transmitted so far: datagrams, the
// messages they carried (their ratio is the bundle factor), and the
// datagrams that carried one message.
func (u *UDPClient) TxStats() (datagrams, msgs, lone uint64) {
	return u.tx.m.Datagrams.Load(), u.tx.m.Msgs.Load(), u.tx.m.Lone.Load()
}

// Send queues p: inside Run's receive batch, or the refill yield after one
// (see Run), it leaves when that ends, otherwise at once. An error is its
// datagram's alone: a send refused because of an earlier ICMP
// port-unreachable consumes that pending error, so the datagram is lost and
// the next one goes out.
func (u *UDPClient) Send(p []byte) error {
	return u.tx.add(p, nil)
}

// Close shuts the socket down, stopping the read loop.
func (u *UDPClient) Close() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil
	}
	u.closed = true
	return u.conn.Close()
}

// udpReply is the server's Pipe back to one remote client, through the
// reply batch of the loop that owns the session. The socket is shared, so
// Close is a no-op.
type udpReply struct {
	tx *txBatch
	to peerAddr
}

func (r *udpReply) Send(p []byte) error { return r.tx.add(p, &r.to) }

func (r *udpReply) Close() error { return nil }

// sessionIdleTimeout bounds how long a silent session keeps its state (one
// retained response per call slot); a client that vanished without a BYE is
// reclaimed after this long, at its loop's next sweep (every quarter of it).
// ListenUDP reads it once; a variable only so tests can shorten it.
var sessionIdleTimeout = 5 * time.Minute

// udpSession is one remote client's state.
type udpSession struct {
	deliver  func([]byte)
	token    string // HELLO session token
	lastSeen int64  // UnixNano stamp of its last receive batch
}

// ingressLoop is one socket of the listener's group, the sessions the
// kernel steers to it, and the send arena their responses leave through.
// Everything but tx is run's alone: no other goroutine touches the session
// table, so routing a message takes no lock.
type ingressLoop struct {
	s        *UDPServer
	conn     *net.UDPConn
	rx       *batchReceiver
	tx       *txBatch
	sessions map[netip.AddrPort]*udpSession
	idle     time.Duration // sessionIdleTimeout as ListenUDP read it
	sweep    time.Time     // when run next expires idle sessions; the socket's read deadline
}

// UDPServer serves one UDP address run-to-completion. On Linux it opens
// GOMAXPROCS sockets in one SO_REUSEPORT group (elsewhere one socket), each
// drained by its own ingress loop: receive a batch (recvmmsg), look each
// message's session up in the loop's own table (a bundle's frames one by
// one), call the session's receive path inline on the receive buffer, send
// the batch's responses with one sendmmsg, bundled per peer. No copy, queue,
// lock or goroutine hand-off sits between the wire and the handler.
//
// Waiting: on Linux a loop polls its socket for pollWindow after traffic,
// yielding the P and the CPU on every empty poll, before it blocks in the
// netpoller, so a client in a request/response exchange does not pay a
// wake-up of the server per op. An idle server is blocked and costs nothing;
// a burst costs one window of polling after its last datagram, and the first
// datagram after idle still pays the wake-up. UDPServerMetrics.Rx counts
// both. Elsewhere every receive is a blocking read.
//
// Ownership: one session = one loop = one core. The kernel hashes the
// 4-tuple onto the group, so a client's datagrams all reach one loop, which
// executes them in arrival order; sessions scale across loops. Parallelism
// within a session is given up on purpose: the work per message (~1 µs) is
// far below a syscall, and no request is overtaken by a newer use of its own
// call slot while a descheduled worker holds it. A receive path must not
// retain the buffer, nor wait for a later datagram of its own
// session (that one is behind it in the same loop).
//
// accept is invoked once per new session with a reply Pipe, and returns the
// session's receive path (typically a Responder.Deliver). The pipe's Send
// copies a response that fits an Ethernet frame into the loop's send arena
// (txBatch), flushed when the receive batch ends or fills; a larger one
// flushes the queue and leaves directly from the caller's buffer. Either way
// per-session order holds and the buffer is not referenced after Send
// returns. Send is safe from any goroutine; outside the loop's receive batch
// it transmits at once.
//
// Session lifecycle: a (CRC-valid) HELLO carrying a token different from
// the current session's starts a fresh session — a restarted client
// reusing its source port must not inherit the previous incarnation's call
// slots, whose use counters would take its new message IDs for duplicates
// or stale copies. A HELLO with the *same* token is a retransmission of
// the current session's handshake and is delivered into it unchanged (its
// slot replays the HELLO-ACK), so an in-flight duplicate cannot wipe the
// retained responses out from under pipelined ops. Clients that send no token
// get the conservative always-reset behaviour. A (CRC-valid) BYE retires
// the session after delivery; a retransmitted BYE simply opens and
// immediately closes a fresh one. Each loop reclaims its own sessions idle
// past sessionIdleTimeout: it sweeps its table every quarter of that, on the
// clock reading that stamps a receive batch, and its socket's read deadline
// is the next sweep, so a loop that hears nothing still sweeps on time.
// UDPServerMetrics counts every session's start, reset, retirement and
// expiry.
type UDPServer struct {
	accept  func(reply Pipe) func([]byte)
	loops   []*ingressLoop
	metrics *UDPServerMetrics

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// ListenUDP binds addr ("host:port"; port 0 picks a free one) and starts
// serving. m receives the session-lifecycle, receive and send counters of
// every loop; nil gets a private, unregistered instance. Use Addr for the
// bound address and Close to stop.
func ListenUDP(addr string, m *UDPServerMetrics, accept func(reply Pipe) func([]byte)) (*UDPServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %s: %w", addr, err)
	}
	conns, err := listenUDPGroup(ua)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	if m == nil {
		m = NewUDPServerMetrics(nil)
	}
	s := &UDPServer{accept: accept, metrics: m}
	for _, c := range conns {
		l := &ingressLoop{s: s, conn: c, sessions: make(map[netip.AddrPort]*udpSession), idle: sessionIdleTimeout}
		if l.rx, err = newBatchReceiver(c, true, m.Rx); err == nil {
			l.tx, err = newTxBatch(c, m.Tx)
		}
		if err != nil {
			closeConns(conns)
			return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
		}
		s.loops = append(s.loops, l)
	}
	s.wg.Add(len(s.loops))
	for _, l := range s.loops {
		go l.run()
	}
	return s, nil
}

func closeConns(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

// Addr reports the bound listen address.
func (s *UDPServer) Addr() string { return s.loops[0].conn.LocalAddr().String() }

// sessionControl classifies the rare session-lifecycle datagrams and
// extracts the HELLO's session token. The kind byte sits at a fixed
// offset, so the cheap peek gates the full (CRC-validating) decode — a
// corrupted datagram must not reset or retire a session.
func sessionControl(p []byte) (hello, bye bool, token string) {
	if len(p) < headerBytes+crcBytes {
		return false, false, ""
	}
	k := Kind(p[1])
	if k != KindHello && k != KindBye {
		return false, false, ""
	}
	m := getMsg()
	if err := DecodeInto(m, p); err == nil {
		// string() copies the token out of the pooled message.
		hello, bye, token = m.Kind == KindHello, m.Kind == KindBye, string(m.Data)
	}
	putMsg(m)
	return hello, bye, token
}

// run receives a batch, executes every message (each frame of a bundle) to
// completion in arrival order and flushes the replies. One clock read stamps
// the whole batch and tells whether the idle sweep is due; a receive that
// hit the sweep's read deadline is an empty batch that runs the sweep.
//
//edmlint:hotpath once per receive batch; the body runs once per message
func (l *ingressLoop) run() {
	defer l.s.wg.Done()
	l.expire(time.Now())
	for {
		n, err := l.rx.recvBatch()
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return
		}
		t := time.Now()
		if err != nil || !t.Before(l.sweep) {
			l.expire(t)
		}
		now := t.UnixNano()
		l.tx.cork()
		for i := 0; i < n; i++ {
			for f := framesOf(l.rx.pkt(i)); f.ok; f.next() {
				if deliver := l.route(f.cur, i, now); deliver != nil {
					deliver(f.cur)
				}
			}
		}
		l.tx.flush()
	}
}

// route classifies message p, carried by datagram i of the current batch,
// against the loop's session table and returns the session's receive path
// (nil when accept declined the session). Each frame of a bundle is routed
// on its own, so HELLO, BYE and session reset act per message.
//
//edmlint:hotpath once per message
func (l *ingressLoop) route(p []byte, i int, now int64) func([]byte) {
	hello, bye, token := sessionControl(p)
	key := l.rx.src(i)
	m := l.s.metrics
	sess, ok := l.sessions[key]
	// A HELLO resets the session unless it carries the current
	// session's token (then it is a handshake retransmission).
	reset := hello && (!ok || token == "" || token != sess.token)
	if !ok || reset {
		//edmlint:allow hotpath once per session, not per datagram
		reply := &udpReply{tx: l.tx, to: l.rx.peer(i)}
		//edmlint:allow hotpath once per session, not per datagram
		sess = &udpSession{deliver: l.s.accept(reply), token: token}
		l.sessions[key] = sess
		m.Started.Inc()
		if ok {
			m.Resets.Inc()
		} else {
			m.Active.Add(1)
		}
	}
	sess.lastSeen = now
	if bye {
		// Retired after this datagram's delivery; the BYE-ACK goes out via
		// the session's own reply pipe regardless.
		l.drop(key, m.Retired)
	}
	return sess.deliver
}

// drop removes a session, counting it under why (Retired or Expired).
func (l *ingressLoop) drop(key netip.AddrPort, why *telemetry.Counter) {
	delete(l.sessions, key)
	why.Inc()
	l.s.metrics.Active.Add(-1)
}

// expire drops the sessions last seen more than idle before t and schedules
// the next sweep a quarter of idle after t, as the socket's read deadline.
func (l *ingressLoop) expire(t time.Time) {
	cutoff := t.Add(-l.idle).UnixNano()
	for key, sess := range l.sessions {
		if sess.lastSeen < cutoff {
			l.drop(key, l.s.metrics.Expired)
		}
	}
	l.sweep = t.Add(l.idle / 4)
	l.conn.SetReadDeadline(l.sweep) // fails only on a closed socket, which ends run anyway
}

// Close stops the server and waits for in-flight handlers.
func (s *UDPServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		for _, l := range s.loops {
			if cerr := l.conn.Close(); err == nil {
				err = cerr
			}
		}
	})
	s.wg.Wait()
	return err
}
