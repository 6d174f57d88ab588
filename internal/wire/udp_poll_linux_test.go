//go:build linux && (amd64 || arm64)

//edmlint:allow walltime these tests time a real socket's poll window

package wire

import (
	"bytes"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// echoServer listens on an ephemeral port and returns the server with the
// metrics its loops count on.
func echoServer(t *testing.T) (*UDPServer, *UDPServerMetrics) {
	t.Helper()
	m := NewUDPServerMetrics(nil)
	server, err := ListenUDP("127.0.0.1:0", m, func(reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, echoHandler).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return server, m
}

// waitFor polls cond until it holds or d passes, and reports whether it held.
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// TestUDPReceiverParksWhenIdle: the poll window is all a burst costs. Once
// the traffic stops, the loop that served it parks within 10 ms (100
// windows) and polls no more. The host can deschedule the test for longer
// than a window, mid-burst or after it, so this must hold on one of three
// bursts.
func TestUDPReceiverParksWhenIdle(t *testing.T) {
	server, m := echoServer(t)
	saddr, _ := net.ResolveUDPAddr("udp", server.Addr())
	sock, err := net.DialUDP("udp", nil, saddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	// Every loop polls one window at start-up, then parks.
	loops := uint64(len(server.loops))
	if !waitFor(5*time.Second, func() bool { return m.Rx.Parks.Load() >= loops }) {
		t.Fatalf("%d loops, %d parks: an untouched server never parked", loops, m.Rx.Parks.Load())
	}
	const burstLen = 64
	buf := make([]byte, MaxDatagram)
	good := false
	for burst := uint32(0); burst < 3 && !good; burst++ {
		parked, polled := m.Rx.Parks.Load(), m.Rx.EmptyPolls.Load()
		for i := uint32(0); i < burstLen; i++ {
			enc, err := (&Msg{Kind: KindRREQ, ID: burst<<12 | i, Count: 8}).AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sock.Write(enc); err != nil {
				t.Fatal(err)
			}
		}
		sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		for got := 0; got < burstLen; {
			n, err := sock.Read(buf)
			if err != nil {
				t.Fatalf("burst %d: response %d: %v", burst, got, err)
			}
			got += len(splitAll(buf[:n]))
		}
		end := time.Now()
		if !waitFor(5*time.Second, func() bool { return m.Rx.Parks.Load() > parked }) {
			t.Fatalf("burst %d: the loop never parked after its traffic stopped", burst)
		}
		took := time.Since(end)
		if m.Rx.EmptyPolls.Load() == polled {
			t.Errorf("burst %d: the loop parked without an empty poll: it does not poll", burst)
		}
		polled = m.Rx.EmptyPolls.Load()
		time.Sleep(5 * time.Millisecond)
		late := m.Rx.EmptyPolls.Load() - polled
		t.Logf("burst %d: parked %v after the last response, %d empty polls in the 5 ms after", burst, took, late)
		good = took <= 10*time.Millisecond && late == 0
	}
	if !good {
		t.Errorf("after each of three bursts the loop took more than 10 ms to park or polled on while parked (pollWindow %v)", pollWindow)
	}
}

// TestUDPCloseWhilePolling: Close on either end returns promptly when the
// receive loops are inside their poll window (not parked in the netpoller,
// where closing the socket wakes them), and the client's Run returns.
func TestUDPCloseWhilePolling(t *testing.T) {
	for i := 0; i < 200; i++ {
		server, _ := echoServer(t)
		uc, err := DialUDP(server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn := NewConn(uc, ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10})
		ran := make(chan struct{})
		go func() {
			uc.Run(conn.Deliver)
			close(ran)
		}()
		// The response restarts both windows: the closes land inside them.
		udpCallSync(t, conn, &Msg{Kind: KindRREQ, Count: 8})
		closed := make(chan struct{})
		go func() {
			if i%2 == 0 {
				uc.Close()
				server.Close()
			} else {
				server.Close()
				uc.Close()
			}
			<-ran
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close while polling did not return", i)
		}
	}
}

// dropPipe loses the next datagram after arm.
type dropPipe struct {
	Pipe
	armed atomic.Bool
}

func (p *dropPipe) arm() { p.armed.Store(true) }

func (p *dropPipe) Send(b []byte) error {
	if p.armed.CompareAndSwap(true, false) {
		return nil
	}
	return p.Pipe.Send(b)
}

// TestUDPPollOneP is the Gosched half of "polls politely": with one P, a
// server loop and a client read loop both polling must not starve the
// issuer (20 000 window-1 reads complete) nor the runtime's timers: a lost
// request whose retry timeout is half the poll window is retransmitted and
// answered while the client's read loop still polls, i.e. without a park.
// Starved timers could fire only once every poller had parked, so each lost
// request would cost a park; the host can add a park of its own, so one
// clean recovery in fifty shows the timer ran.
func TestUDPPollOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	server, _ := echoServer(t)
	dial := func(cfg ConnConfig) (*UDPClient, *dropPipe, *Conn) {
		uc, err := DialUDP(server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { uc.Close() })
		pipe := &dropPipe{Pipe: uc}
		conn := NewConn(pipe, cfg)
		go uc.Run(conn.Deliver)
		return uc, pipe, conn
	}

	_, _, conn := dial(ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 50})
	for i := 0; i < 20000; i++ {
		if r := udpCallSync(t, conn, &Msg{Kind: KindRREQ, Count: 64}); len(r.Data) != 64 {
			t.Fatalf("read %d returned %d bytes", i, len(r.Data))
		}
	}

	// A two-second per-call deadline in 50 us attempts: spurious
	// retransmissions (the timeout is near the round trip) are only replays.
	uc, pipe, conn := dial(ConnConfig{RetryTimeout: pollWindow / 2, MaxRetries: 40000})
	udpCallSync(t, conn, &Msg{Kind: KindRREQ, Count: 64})
	clean := 0
	for i := 0; i < 50; i++ {
		parks, _ := uc.RxStats()
		retx := conn.Stats().Retransmit
		pipe.arm()
		udpCallSync(t, conn, &Msg{Kind: KindRREQ, Count: 64})
		if conn.Stats().Retransmit == retx {
			t.Fatalf("lost request %d completed without a retransmission", i)
		}
		if after, _ := uc.RxStats(); after == parks {
			clean++
		}
	}
	t.Logf("%d of 50 lost requests were retransmitted and answered inside the poll window", clean)
	if clean == 0 {
		t.Errorf("every lost request waited for the read loop to park: the retransmission clock does not run while the loops poll")
	}
}

// rawPeer connects a UDPClient to a plain socket on 127.0.0.1 that the test
// reads and writes by hand. The caller closes both.
func rawPeer(t *testing.T) (*net.UDPConn, *UDPClient) {
	t.Helper()
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sock, err := net.DialUDP("udp", nil, peer.LocalAddr().(*net.UDPAddr))
	if err == nil {
		var uc *UDPClient
		if uc, err = newUDPClient(sock); err == nil {
			return peer, uc
		}
		sock.Close()
	}
	peer.Close()
	t.Fatal(err)
	return nil, nil
}

// refillRound has a raw peer send a UDPClient one datagram of frames
// messages. The client's deliver wakes an issuer goroutine, which yields the
// P once (so it misses the yield of the batch that woke it) and then sends
// frames requests. It returns how many datagrams carried those requests, and
// whether the first of them was already at the peer when the issuer's last
// Send returned.
func refillRound(t *testing.T, frames int) (datagrams int, immediate bool) {
	t.Helper()
	peer, uc := rawPeer(t)
	defer peer.Close()
	defer uc.Close()
	prc, err := peer.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}

	wake := make(chan struct{})
	delivered := 0
	go uc.Run(func([]byte) {
		if delivered++; delivered == frames {
			close(wake)
		}
	})
	buf := make([]byte, MaxDatagram)
	first := make(chan int, 1) // the first datagram's length, 0 if none was there yet
	go func() {
		<-wake
		runtime.Gosched()
		for i := 0; i < frames; i++ {
			uc.Send([]byte{Version, byte(i)})
		}
		n := 0
		prc.Read(func(fd uintptr) bool {
			if got, _, err := syscall.Recvfrom(int(fd), buf, syscall.MSG_DONTWAIT); err == nil {
				n = got
			}
			return true
		})
		first <- n
	}()

	var batch [][]byte
	for i := 0; i < frames; i++ {
		batch = append(batch, []byte{Version, 0x80 | byte(i)})
	}
	dgram := batch[0]
	if frames > 1 {
		dgram = appendBundle(nil, batch...)
	}
	if _, err := peer.WriteToUDP(dgram, uc.conn.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	n := <-first
	immediate = n > 0
	got := 0
	for {
		if n > 0 {
			datagrams++
			got += len(splitAll(buf[:n]))
		}
		if got >= frames {
			return datagrams, immediate
		}
		peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err = peer.Read(buf); err != nil {
			t.Fatalf("%d of %d requests arrived: %v", got, frames, err)
		}
	}
}

// TestUDPRefillBundles: the requests an issuer sends in reply to a batch of
// several messages leave in one bundle even when the issuer misses the
// batch's own yield, because Run holds its cork over the first empty poll's
// yield too. The scheduler serves the global run queue first every 61st
// tick; when that tick falls on the batch's yield the issuer misses both, so
// the bundle must form in one of three rounds. The refill of a
// one-message batch is not corked: it has left when the issuer's Send
// returns.
func TestUDPRefillBundles(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const frames = 8
	bundled := false
	for round := 0; round < 3 && !bundled; round++ {
		datagrams, _ := refillRound(t, frames)
		t.Logf("round %d: %d requests left in %d datagrams", round, frames, datagrams)
		bundled = datagrams == 1
	}
	if !bundled {
		t.Errorf("in each of three rounds the refill of a %d-message batch left in more than one datagram", frames)
	}
	if datagrams, immediate := refillRound(t, 1); datagrams != 1 || !immediate {
		t.Errorf("the refill of a one-message batch: %d datagrams, at the peer when Send returned: %v; want 1, true", datagrams, immediate)
	}
}

// TestUDPLoneRefillBeforeNextPoll: with one P, an issuer that the
// completion of a one-message batch woke sends its next request before Run
// polls the socket again. A raw peer sends the client 50 plain datagrams,
// one at a time, each after the request the previous one caused. The
// client's deliver hands the empty-poll count to the waiting issuer, which
// reads it again when it runs and then sends; an empty poll in between means
// the request waited out an empty recvmmsg. The scheduler serves its global
// run queue first on every 61st tick, so a few rounds may miss.
func TestUDPLoneRefillBeforeNextPoll(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	peer, uc := rawPeer(t)
	defer peer.Close()
	defer uc.Close()

	const rounds = 50
	woke := make(chan uint64, 1) // the empty-poll count at delivery
	go uc.Run(func([]byte) {
		_, polls := uc.RxStats()
		woke <- polls
	})
	early := make(chan int, 1) // the rounds with no empty poll in between
	go func() {
		n := 0
		for i := 0; i < rounds; i++ {
			at := <-woke
			if _, polls := uc.RxStats(); polls == at {
				n++
			}
			uc.Send([]byte{Version, byte(i)})
		}
		early <- n
	}()
	buf := make([]byte, MaxDatagram)
	to := uc.conn.LocalAddr().(*net.UDPAddr)
	for i := 0; i < rounds; i++ {
		if _, err := peer.WriteToUDP([]byte{Version, 0x80 | byte(i)}, to); err != nil {
			t.Fatal(err)
		}
		peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := peer.Read(buf); err != nil {
			t.Fatalf("round %d: no request: %v", i, err)
		}
	}
	before := <-early
	t.Logf("%d of %d requests left before the read loop's next empty poll", before, rounds)
	if before < rounds-5 {
		t.Errorf("%d of %d requests left before the read loop's next empty poll, want at least %d", before, rounds, rounds-5)
	}
}

// TestTxBatchBundles pins what a corked arena puts on the wire: consecutive
// messages to one peer share a datagram of at most maxBundle bytes laid out
// as bundleMarker documents; a lone message is sent plain, byte for byte; a
// message larger than a slot leaves directly, after what queued before it;
// and the counters see every datagram and message.
func TestTxBatchBundles(t *testing.T) {
	rconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	sconn, err := net.DialUDP("udp", nil, rconn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer sconn.Close()
	txm := newUDPTxMetrics(nil)
	tx, err := newTxBatch(sconn, txm)
	if err != nil {
		t.Fatal(err)
	}
	msg := func(n int, b byte) []byte {
		p := bytes.Repeat([]byte{b}, n)
		p[0] = Version
		return p
	}
	small := [][]byte{msg(64, 1), msg(33, 2), msg(200, 3)}
	big := msg(4000, 4)
	var run [][]byte // 100 B each: 14 entries fill 1 + 14*102 = 1429 B, the 15th does not fit
	for i := 0; i < 20; i++ {
		run = append(run, msg(100, byte(10+i)))
	}
	lone := msg(48, 5)

	tx.cork()
	for _, p := range small {
		tx.add(p, nil)
	}
	tx.add(big, nil)
	for _, p := range run {
		tx.add(p, nil)
	}
	tx.flush()
	tx.add(lone, nil) // uncorked: sent at once

	want := [][]byte{
		appendBundle(nil, small...),
		big,
		appendBundle(nil, run[:14]...),
		appendBundle(nil, run[14:]...),
		lone,
	}
	buf := make([]byte, MaxDatagram)
	for i, w := range want {
		rconn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := rconn.Read(buf)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if n > maxBundle && n != len(big) {
			t.Errorf("datagram %d is %d bytes, above one frame's %d", i, n, maxBundle)
		}
		if !bytes.Equal(buf[:n], w) {
			t.Fatalf("datagram %d: got %d bytes % x..., want %d bytes % x...", i, n, buf[:min(n, 8)], len(w), w[:8])
		}
	}
	// Lone: the large message and the uncorked one.
	if d, m, l := txm.Datagrams.Load(), txm.Msgs.Load(), txm.Lone.Load(); d != uint64(len(want)) || m != uint64(len(small)+1+len(run)+1) || l != 2 {
		t.Errorf("counted %d datagrams %d messages %d lone, want %d %d 2", d, m, l, len(want), len(small)+len(run)+2)
	}
}
