//edmlint:allow walltime these tests drive real sockets and session expiry stamps

package wire

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"
)

// udpRawCall sends one request from sock and waits for any reply.
func udpRawCall(t *testing.T, sock *net.UDPConn, m *Msg) {
	t.Helper()
	enc, err := m.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sock.Write(enc); err != nil {
		t.Fatal(err)
	}
	sock.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := sock.Read(make([]byte, MaxDatagram)); err != nil {
		t.Fatal(err)
	}
}

// TestUDPLoopsOwnSessions: every session lives in exactly one loop's table,
// the SO_REUSEPORT group spreads sessions over the loops, a BYE retires its
// session and each loop's sweep expires the idle ones. The tables are read
// only once Close has stopped the loops that own them.
func TestUDPLoopsOwnSessions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const clients = 16
	m := NewUDPServerMetrics(nil)
	server, err := ListenUDP("127.0.0.1:0", m, func(reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, echoHandler).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	saddr, err := net.ResolveUDPAddr("udp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	socks := make([]*net.UDPConn, clients)
	for i := range socks {
		sock, err := net.DialUDP("udp", nil, saddr)
		if err != nil {
			t.Fatal(err)
		}
		defer sock.Close()
		udpRawCall(t, sock, &Msg{Kind: KindRREQ, ID: 1, Count: 8})
		udpRawCall(t, sock, &Msg{Kind: KindRREQ, ID: 2, Count: 8})
		socks[i] = sock
	}
	if m.Started.Load() != clients || m.Active.Load() != clients {
		t.Fatalf("sessions started %d live %d, want %d each (a remote must map to one loop)",
			m.Started.Load(), m.Active.Load(), clients)
	}
	udpRawCall(t, socks[0], &Msg{Kind: KindBye, ID: 3})
	if m.Retired.Load() != 1 || m.Active.Load() != clients-1 {
		t.Fatalf("after a BYE: retired %d live %d, want 1 and %d", m.Retired.Load(), m.Active.Load(), clients-1)
	}

	server.Close()
	owners, held := 0, 0
	for _, l := range server.loops {
		held += len(l.sessions)
		if len(l.sessions) > 0 {
			owners++
		}
	}
	if held != clients-1 {
		t.Fatalf("loop tables hold %d sessions, want %d", held, clients-1)
	}
	// 16 random source ports all hashing to one of 4 sockets: 4^-15.
	if len(server.loops) > 1 && owners < 2 {
		t.Errorf("%d loops but only %d own sessions: the group does not spread", len(server.loops), owners)
	}
	t.Logf("%d loops, %d own sessions", len(server.loops), owners)

	now := time.Now()
	for _, l := range server.loops {
		l.expire(now)
	}
	if m.Expired.Load() != 0 || m.Active.Load() != clients-1 {
		t.Fatalf("a sweep expired live sessions: expired %d, %d left", m.Expired.Load(), m.Active.Load())
	}
	for _, l := range server.loops {
		l.expire(now.Add(time.Hour))
		if len(l.sessions) != 0 {
			t.Fatalf("a sweep an hour on left %d sessions", len(l.sessions))
		}
	}
	if m.Started.Load() != clients || m.Retired.Load() != 1 || m.Expired.Load() != clients-1 || m.Active.Load() != 0 {
		t.Errorf("metrics started %d retired %d expired %d active %d", m.Started.Load(),
			m.Retired.Load(), m.Expired.Load(), m.Active.Load())
	}
}

// TestUDPIdleLoopExpiresSilentSession: a client that vanishes without a BYE
// is reclaimed after sessionIdleTimeout although no datagram arrives to run
// its loop (the read deadline does), and the loop serves on afterwards.
func TestUDPIdleLoopExpiresSilentSession(t *testing.T) {
	defer func(d time.Duration) { sessionIdleTimeout = d }(sessionIdleTimeout)
	sessionIdleTimeout = 200 * time.Millisecond
	m := NewUDPServerMetrics(nil)
	server, err := ListenUDP("127.0.0.1:0", m, func(reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, echoHandler).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	saddr, _ := net.ResolveUDPAddr("udp", server.Addr())
	sock, err := net.DialUDP("udp", nil, saddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()

	before := time.Now()
	udpRawCall(t, sock, &Msg{Kind: KindRREQ, ID: 1, Count: 8})
	if m.Active.Load() != 1 {
		t.Fatalf("%d sessions live after a call, want 1", m.Active.Load())
	}
	for m.Expired.Load() == 0 {
		if time.Since(before) > 50*sessionIdleTimeout {
			t.Fatalf("silent session not expired after %v: %d live", time.Since(before), m.Active.Load())
		}
		time.Sleep(sessionIdleTimeout / 20)
	}
	if idle := time.Since(before); idle < sessionIdleTimeout {
		t.Errorf("session expired after %v of silence, before the %v timeout", idle, sessionIdleTimeout)
	}
	if m.Active.Load() != 0 || m.Expired.Load() != 1 || m.Retired.Load() != 0 {
		t.Fatalf("live %d expired %d retired %d, want 0 1 0", m.Active.Load(), m.Expired.Load(), m.Retired.Load())
	}
	udpRawCall(t, sock, &Msg{Kind: KindRREQ, ID: 2, Count: 8})
	if m.Started.Load() != 2 || m.Active.Load() != 1 {
		t.Errorf("after expiry the remote's next call: started %d live %d, want 2 1", m.Started.Load(), m.Active.Load())
	}
}

// TestUDPReplyOutsideBatch: a reply pipe used from a goroutine that is not
// the session's loop transmits at once instead of waiting for the loop's
// next receive batch.
func TestUDPReplyOutsideBatch(t *testing.T) {
	pipes := make(chan Pipe, 1)
	server, err := ListenUDP("127.0.0.1:0", nil, func(reply Pipe) func([]byte) {
		pipes <- reply
		return func([]byte) {}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	saddr, _ := net.ResolveUDPAddr("udp", server.Addr())
	sock, err := net.DialUDP("udp", nil, saddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	if _, err := sock.Write([]byte("knock")); err != nil {
		t.Fatal(err)
	}
	reply := <-pipes
	for _, want := range []string{"small", string(make([]byte, 3000))} {
		if err := reply.Send([]byte(want)); err != nil {
			t.Fatal(err)
		}
		sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, MaxDatagram)
		n, err := sock.Read(buf)
		if err != nil {
			t.Fatalf("unsolicited %d-byte reply never arrived: %v", len(want), err)
		}
		if string(buf[:n]) != want {
			t.Fatalf("got %d bytes, want the %d sent", n, len(want))
		}
	}
}

// TestUDPBatchPathAllocs pins the per-batch machinery at zero allocations:
// the RawConn callbacks are bound once, not closed over per call.
func TestUDPBatchPathAllocs(t *testing.T) {
	sconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sconn.Close()
	cconn, err := net.DialUDP("udp", nil, sconn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	rxm := newUDPRxMetrics(nil)
	rx, err := newBatchReceiver(sconn, true, rxm)
	if err != nil {
		t.Fatal(err)
	}
	req := make([]byte, 64)
	if allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 4; i++ {
			cconn.Write(req)
		}
		for got := 0; got < 4; {
			n, err := rx.recvBatch()
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}); allocs != 0 {
		t.Errorf("recvBatch: %v allocs per batch, want 0", allocs)
	}
	if got := rx.src(0).String(); got != cconn.LocalAddr().String() {
		t.Errorf("src = %s, want %s", got, cconn.LocalAddr())
	}

	txm := newUDPTxMetrics(nil)
	tx, err := newTxBatch(sconn, txm)
	if err != nil {
		t.Fatal(err)
	}
	to := rx.peer(0)
	small, big := make([]byte, 96), make([]byte, 16<<10)
	// The client socket is never drained; once its buffer fills the kernel
	// drops the replies, which costs the sender nothing.
	if allocs := testing.AllocsPerRun(200, func() {
		tx.cork()
		for i := 0; i < 6; i++ {
			tx.add(small, &to)
		}
		tx.add(big, &to)
		tx.add(small, &to)
		tx.flush()
	}); allocs != 0 {
		t.Errorf("tx batch add/flush: %v allocs per batch, want 0", allocs)
	}
}

// TestUDPClientSurvivesRefused: an ICMP port-unreachable (the server is down
// or restarting) leaves a pending error on the connected socket. It is not a
// closed socket: the read loop must outlive it, and once something listens on
// the address again its datagrams must reach deliver. A Send that trips over
// the pending error loses that one datagram and no other.
func TestUDPClientSurvivesRefused(t *testing.T) {
	// A port nobody listens on: bind one, note it, close it.
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()

	uc, err := DialUDP(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	got := make(chan string, 16)
	ran := make(chan struct{})
	go func() {
		uc.Run(func(p []byte) { got <- string(p) })
		close(ran)
	}()
	uc.Send([]byte("anyone?")) // refused; the error is the read loop's or the next Send's to find
	select {
	case <-ran:
		t.Fatal("Run returned on a refused datagram: the socket is still open")
	case <-time.After(50 * time.Millisecond):
	}

	echo, err := net.ListenUDP("udp", addr)
	if err != nil {
		t.Skipf("port %d was taken while it was free: %v", addr.Port, err)
	}
	defer echo.Close()
	go func() {
		buf := make([]byte, MaxDatagram)
		for {
			n, from, err := echo.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			echo.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	lost := 0
	for _, want := range []string{"one", "two", "three"} {
		for uc.Send([]byte(want)) != nil {
			if lost++; lost > 1 {
				t.Fatalf("Send failed %d times: one refusal poisons more than one datagram", lost)
			}
		}
		select {
		case p := <-got:
			if p != want {
				t.Fatalf("delivered %q, want %q", p, want)
			}
		case <-ran:
			t.Fatal("Run returned while the socket is open")
		case <-time.After(5 * time.Second):
			t.Fatalf("echo of %q never delivered: the read loop is deaf after a refusal", want)
		}
	}
}

// bundleSentinel is the ID of the plain request bundleExchange sends after
// the datagram under test.
const bundleSentinel = 4000

// bundleExchange sends datagram p on sock, then a plain RREQ, and returns
// every response that arrived before the RREQ's, in order. The session's
// loop executes its messages in arrival order, so a response to p that is
// not back by then was never going to be sent.
func bundleExchange(t *testing.T, sock *net.UDPConn, p []byte) []*Msg {
	t.Helper()
	for _, d := range [][]byte{p, mustEncode(t, &Msg{Kind: KindRREQ, ID: bundleSentinel, Count: 1})} {
		if _, err := sock.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	var got []*Msg
	buf := make([]byte, MaxDatagram)
	for {
		sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := sock.Read(buf)
		if err != nil {
			t.Fatalf("after %d responses: %v", len(got), err)
		}
		for _, fr := range splitAll(buf[:n]) {
			m := new(Msg)
			if err := DecodeInto(m, fr); err != nil {
				t.Fatalf("undecodable response frame: %v", err)
			}
			if m.ID == bundleSentinel {
				return got
			}
			got = append(got, m.Clone())
		}
	}
}

// TestUDPBundleFrames: the server routes each frame of a received bundle as
// it would a datagram of its own — corruption, truncation, HELLO and BYE act
// per message.
func TestUDPBundleFrames(t *testing.T) {
	m := NewUDPServerMetrics(nil)
	server, err := ListenUDP("127.0.0.1:0", m, func(reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, echoHandler).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	saddr, _ := net.ResolveUDPAddr("udp", server.Addr())
	dial := func(t *testing.T) *net.UDPConn {
		sock, err := net.DialUDP("udp", nil, saddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sock.Close() })
		return sock
	}
	rreq := func(id uint32) []byte { return mustEncode(t, &Msg{Kind: KindRREQ, ID: id, Count: 8}) }
	type resp struct {
		kind Kind
		id   uint32
	}
	check := func(t *testing.T, got []*Msg, want ...resp) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d responses, want %d", len(got), len(want))
		}
		for i, w := range want {
			if got[i].Kind != w.kind || got[i].ID != w.id {
				t.Fatalf("response %d is %v %d, want %v %d", i, got[i].Kind, got[i].ID, w.kind, w.id)
			}
		}
	}

	t.Run("corrupt middle frame", func(t *testing.T) {
		mid := rreq(2)
		mid[headerBytes-1] ^= 0x40
		got := bundleExchange(t, dial(t), appendBundle(nil, rreq(1), mid, rreq(3)))
		check(t, got, resp{KindRRESP, 1}, resp{KindRRESP, 3})
	})

	t.Run("truncated length prefix", func(t *testing.T) {
		p := appendBundle(nil, rreq(1), rreq(2))
		p = binary.LittleEndian.AppendUint16(p, 0xffff)
		p = append(p, rreq(3)...) // a whole frame behind the bad length is not resynchronised on
		check(t, bundleExchange(t, dial(t), p), resp{KindRRESP, 1}, resp{KindRRESP, 2})
		p = append(appendBundle(nil, rreq(4)), 9) // one byte of a length prefix
		check(t, bundleExchange(t, dial(t), p), resp{KindRRESP, 4})
	})

	t.Run("hello and read", func(t *testing.T) {
		before, sessions := m.Started.Load(), m.Active.Load()
		hello := mustEncode(t, &Msg{Kind: KindHello, ID: 0, Data: []byte("token-A!")})
		got := bundleExchange(t, dial(t), appendBundle(nil, hello, rreq(1)))
		check(t, got, resp{KindHelloAck, 0}, resp{KindRRESP, 1})
		if len(got[1].Data) != 8 {
			t.Errorf("read answered with %d bytes, want 8", len(got[1].Data))
		}
		if m.Started.Load() != before+1 || m.Active.Load() != sessions+1 {
			t.Errorf("sessions started %d -> %d, live %d -> %d: want one new session", before, m.Started.Load(), sessions, m.Active.Load())
		}
	})

	t.Run("bye mid-bundle", func(t *testing.T) {
		started, retired, sessions := m.Started.Load(), m.Retired.Load(), m.Active.Load()
		bye := mustEncode(t, &Msg{Kind: KindBye, ID: 2})
		got := bundleExchange(t, dial(t), appendBundle(nil, rreq(1), bye, rreq(3)))
		check(t, got, resp{KindRRESP, 1}, resp{KindByeAck, 2}, resp{KindRRESP, 3})
		// The BYE retired the session that served it; the read behind it
		// opened a fresh one, which the sentinel found.
		if m.Retired.Load() != retired+1 || m.Started.Load() != started+2 || m.Active.Load() != sessions+1 {
			t.Errorf("retired +%d started +%d live +%d, want +1 +2 +1",
				m.Retired.Load()-retired, m.Started.Load()-started, m.Active.Load()-sessions)
		}
	})
}
