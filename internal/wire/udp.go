//edmlint:allow walltime the UDP transport is the real-time boundary: socket timestamps and idle reclamation are wall time by nature

package wire

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// UDPClient is the client-side Pipe over a connected UDP socket. It
// implements BatchPipe: a corked window flush goes out as one sendmmsg on
// platforms that have it.
type UDPClient struct {
	conn *net.UDPConn
	bs   *batchSender
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
	bs, err := newBatchSender(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return &UDPClient{conn: conn, bs: bs, rx: newUDPRxMetrics(nil)}, nil
}

// Run is the read loop: it routes every inbound datagram to deliver until
// the socket closes, and returns then. On Linux it waits poll-then-park (see
// pollWindow): for a window after each response it polls the socket,
// yielding the P and the CPU on every empty poll, so the next response of a
// request/response exchange needs no wake-up; idle past the window, it blocks
// in the netpoller. A refused datagram (ICMP port-unreachable: the server is
// down or restarting) does not end the loop; the socket hears the server
// again once it is back. Datagrams arrive in receive buffers the loop reuses,
// so deliver must not retain its argument past the call (Conn.Deliver decodes
// in place and runs the completion to its end before returning, satisfying
// this).
func (u *UDPClient) Run(deliver func([]byte)) {
	r, err := newBatchReceiver(u.conn, false, func() *UDPRxMetrics { return &u.rx })
	if err != nil {
		return
	}
	for {
		n, err := r.recvBatch()
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			deliver(r.pkt(i))
		}
	}
}

// RxStats reports how Run has waited so far: parks in the netpoller, and
// polls that found the socket empty (always 0 off Linux).
func (u *UDPClient) RxStats() (parks, emptyPolls uint64) {
	return u.rx.Parks.Load(), u.rx.EmptyPolls.Load()
}

// Send transmits one datagram. An error is this datagram's alone: a write
// refused because of an earlier ICMP port-unreachable consumes that pending
// error, so the datagram is lost and the next one goes out.
func (u *UDPClient) Send(p []byte) error {
	_, err := u.conn.Write(p)
	return err
}

// SendBatch transmits ps in order, coalescing datagrams into batched
// syscalls where the platform supports it.
func (u *UDPClient) SendBatch(ps [][]byte) error {
	return u.bs.send(ps)
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
	tx *replyBatch
	to peerAddr
}

func (r *udpReply) Send(p []byte) error { return r.tx.add(p, &r.to) }

func (r *udpReply) Close() error { return nil }

// sessionIdleTimeout bounds how long a silent session keeps its state (one
// retained response per call slot); a client that vanished without a BYE is
// reclaimed after this long.
const sessionIdleTimeout = 5 * time.Minute

// udpSession is one remote client's state.
type udpSession struct {
	deliver  func([]byte)
	token    string // HELLO session token; guarded by mu (the loop's)
	lastSeen int64  // guarded by mu (the loop's): UnixNano stamp of its last receive batch
}

// ingressLoop is one socket of the listener's group, the sessions the
// kernel steers to it, and the reply batch their responses leave through.
// mu is this loop's alone: run takes it once per datagram, uncontended
// unless the janitor, Sessions or Forget is looking.
type ingressLoop struct {
	s    *UDPServer
	conn *net.UDPConn
	rx   *batchReceiver // touched by run only
	tx   *replyBatch

	mu       sync.Mutex
	sessions map[netip.AddrPort]*udpSession // guarded by mu
}

// UDPServer serves one UDP address run-to-completion. On Linux it opens
// GOMAXPROCS sockets in one SO_REUSEPORT group (elsewhere one socket), each
// drained by its own ingress loop: receive a batch (recvmmsg), look each
// datagram's session up in the loop's own table, call the session's receive
// path inline on the receive buffer, send the batch's responses with one
// sendmmsg. No copy, queue or goroutine hand-off sits between the wire and
// the handler.
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
// accept is invoked once per new session with the remote's address and a
// reply Pipe, and returns the session's receive path (typically a
// Responder.Deliver). The pipe's Send copies a response that fits an
// Ethernet frame into the loop's send arena, flushed when the receive batch
// ends or fills; a larger one flushes the queue and leaves directly from
// the caller's buffer. Either way per-session order holds and the buffer is
// not referenced after Send returns. Send is safe from any goroutine;
// outside the loop's receive batch it transmits at once.
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
// immediately closes a fresh one. Sessions idle past sessionIdleTimeout
// are reclaimed by a janitor.
type UDPServer struct {
	accept  func(remote string, reply Pipe) func([]byte)
	loops   []*ingressLoop
	metrics atomic.Pointer[UDPServerMetrics]

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// ListenUDP binds addr ("host:port"; port 0 picks a free one) and starts
// serving. Use Addr for the bound address and Close to stop.
func ListenUDP(addr string, accept func(remote string, reply Pipe) func([]byte)) (*UDPServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %s: %w", addr, err)
	}
	conns, err := listenUDPGroup(ua)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &UDPServer{accept: accept, done: make(chan struct{})}
	s.metrics.Store(NewUDPServerMetrics(nil))
	rxStats := func() *UDPRxMetrics { return &s.metrics.Load().Rx }
	for _, c := range conns {
		l := &ingressLoop{s: s, conn: c, sessions: make(map[netip.AddrPort]*udpSession)}
		if l.rx, err = newBatchReceiver(c, true, rxStats); err == nil {
			l.tx, err = newReplyBatch(c)
		}
		if err != nil {
			closeConns(conns)
			return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
		}
		s.loops = append(s.loops, l)
	}
	s.wg.Add(len(s.loops) + 1)
	for _, l := range s.loops {
		go l.run()
	}
	go s.janitor()
	return s, nil
}

func closeConns(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

// SetMetrics swaps in registered session-lifecycle metrics. Call it right
// after ListenUDP, before clients connect; events counted on the default
// (unregistered) instance are not carried over.
func (s *UDPServer) SetMetrics(m *UDPServerMetrics) {
	if m == nil {
		return
	}
	m.Active.Set(int64(s.Sessions()))
	s.metrics.Store(m)
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

// run receives a batch, executes every datagram to completion in arrival
// order and flushes the replies. One clock read stamps the whole batch.
//
//edmlint:hotpath once per receive batch; the body runs once per datagram
func (l *ingressLoop) run() {
	defer l.s.wg.Done()
	for {
		n, err := l.rx.recvBatch()
		if err != nil {
			return
		}
		now := time.Now().UnixNano()
		l.tx.cork()
		for i := 0; i < n; i++ {
			p := l.rx.pkt(i)
			if deliver := l.route(p, i, now); deliver != nil {
				deliver(p)
			}
		}
		l.tx.flush()
	}
}

// route classifies datagram i of the current batch against the loop's
// session table and returns the session's receive path (nil when accept
// declined the session).
//
//edmlint:hotpath once per datagram
func (l *ingressLoop) route(p []byte, i int, now int64) func([]byte) {
	hello, bye, token := sessionControl(p)
	key := l.rx.src(i)
	m := l.s.metrics.Load()
	l.mu.Lock()
	sess, ok := l.sessions[key]
	// A HELLO resets the session unless it carries the current
	// session's token (then it is a handshake retransmission).
	reset := hello && (!ok || token == "" || token != sess.token)
	if !ok || reset {
		//edmlint:allow hotpath once per session, not per datagram
		reply := &udpReply{tx: l.tx, to: l.rx.peer(i)}
		//edmlint:allow hotpath once per session, not per datagram
		sess = &udpSession{deliver: l.s.accept(key.String(), reply), token: token}
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
		l.dropLocked(key, m.Retired)
	}
	l.mu.Unlock()
	return sess.deliver
}

// dropLocked removes a session, counting it under why (Retired or Expired).
func (l *ingressLoop) dropLocked(key netip.AddrPort, why *telemetry.Counter) {
	delete(l.sessions, key)
	why.Inc()
	l.s.metrics.Load().Active.Add(-1)
}

// janitor reclaims sessions idle past sessionIdleTimeout on every loop.
func (s *UDPServer) janitor() {
	defer s.wg.Done()
	ticker := time.NewTicker(sessionIdleTimeout / 4)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		s.expire(time.Now().Add(-sessionIdleTimeout).UnixNano())
	}
}

// expire drops every session last seen before cutoff (UnixNano).
func (s *UDPServer) expire(cutoff int64) {
	m := s.metrics.Load()
	for _, l := range s.loops {
		l.mu.Lock()
		for key, sess := range l.sessions {
			if sess.lastSeen < cutoff {
				l.dropLocked(key, m.Expired)
			}
		}
		l.mu.Unlock()
	}
}

// Sessions reports the number of live sessions across all loops.
func (s *UDPServer) Sessions() int {
	n := 0
	for _, l := range s.loops {
		l.mu.Lock()
		n += len(l.sessions)
		l.mu.Unlock()
	}
	return n
}

// Forget drops the session state for one remote, named as accept saw it
// (after a BYE, so a future HELLO from the same address starts fresh).
func (s *UDPServer) Forget(remote string) {
	key, err := netip.ParseAddrPort(remote)
	if err != nil {
		return
	}
	m := s.metrics.Load()
	for _, l := range s.loops {
		l.mu.Lock()
		if _, ok := l.sessions[key]; ok {
			l.dropLocked(key, m.Retired)
		}
		l.mu.Unlock()
	}
}

// Close stops the server and waits for in-flight handlers.
func (s *UDPServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		for _, l := range s.loops {
			if cerr := l.conn.Close(); err == nil {
				err = cerr
			}
		}
	})
	s.wg.Wait()
	return err
}
