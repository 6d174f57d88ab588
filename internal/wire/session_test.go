//edmlint:allow walltime these tests exercise the real retransmission clock and session expiry

package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestResponderEvictionKeepsInflight: an entry whose handler is still running
// survives whatever the rest of the session does — the other slots turning
// over, its own slot moving on to a newer call — because its retransmissions
// depend on it: they must wait for the one execution, not start another.
func TestResponderEvictionKeepsInflight(t *testing.T) {
	var sent [][]byte
	var mu sync.Mutex
	pipe := collectPipe{&mu, &sent}
	var executions atomic.Int32
	release := make(chan struct{})
	stalled := slotID(0, 7)
	handler := func(m, resp *Msg) {
		executions.Add(1)
		if m.ID == stalled {
			<-release // stalls mid-execution
		}
		resp.Data = append(resp.Data, byte(m.ID>>slotBits))
	}
	rm := NewResponderMetrics(nil)
	r := NewResponder(pipe, ResponderConfig{Window: 2, Metrics: rm}, handler)

	enc := func(id uint32) []byte {
		b, err := (&Msg{Kind: KindRREQ, ID: id, Count: 1}).AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Deliver(enc(stalled)) // blocks in the handler
	}()
	for executions.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The session's other slot turns over several times.
	for seq := uint32(0); seq < 5; seq++ {
		r.Deliver(enc(slotID(1, seq)))
	}
	// A retransmission of the stalled request must find its in-flight entry
	// and wait, not re-execute.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Deliver(enc(stalled))
	}()
	for {
		r.mu.Lock()
		parked := r.waiting
		r.mu.Unlock()
		if parked == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The client gives the stalled call up and reuses its slot: the newer
	// call executes in an entry of its own, the stalled one keeps its.
	r.Deliver(enc(slotID(0, 8)))
	close(release)
	wg.Wait()
	if n := executions.Load(); n != 7 {
		t.Fatalf("handler ran %d times, want 7 (each request once)", n)
	}
	if st := countsOf(rm); st.Duplicates != 1 || st.Stale != 0 {
		t.Fatalf("responder stats %+v, want 1 duplicate", st)
	}
	// The stalled request's owner and its waiting duplicate both answered
	// with the stalled request's own response.
	mu.Lock()
	defer mu.Unlock()
	answers := 0
	for _, b := range sent {
		var m Msg
		if err := DecodeInto(&m, b); err != nil {
			t.Fatalf("a response does not decode: %v", err)
		}
		if m.ID == stalled {
			answers++
			if len(m.Data) != 1 || m.Data[0] != 7 {
				t.Fatalf("stalled request answered with payload %v", m.Data)
			}
		}
	}
	if answers != 2 {
		t.Fatalf("stalled request answered %d times, want 2 (owner and duplicate)", answers)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.free == nil || r.free.next != nil || r.free.waiters != 0 || r.slots[0].e == r.free {
		t.Fatal("the detached entry was not freed exactly once after its last user")
	}
}

// collectPipe records sent datagrams.
type collectPipe struct {
	mu   *sync.Mutex
	sent *[][]byte
}

func (p collectPipe) Send(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	*p.sent = append(*p.sent, b)
	return nil
}

func (p collectPipe) Close() error { return nil }

// TestUDPSessionResetOnHello: a restarted client reusing its source port
// must get a fresh session — the old incarnation's duplicate-suppression
// cache would otherwise replay stale responses to the new message IDs.
func TestUDPSessionResetOnHello(t *testing.T) {
	executions := 0
	var mu sync.Mutex
	handler := func(m, resp *Msg) {
		mu.Lock()
		executions++
		n := executions
		mu.Unlock()
		if m.Kind == KindRREQ {
			// Tag the response with the execution count so a stale cached
			// replay is distinguishable from a fresh execution.
			resp.Data = append(resp.Data[:0], byte(n))
		}
	}
	sm := NewUDPServerMetrics(nil)
	server, err := ListenUDP("127.0.0.1:0", sm, func(reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, handler).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	saddr, err := net.ResolveUDPAddr("udp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// First incarnation from a fixed local port: HELLO (ID 0) + RREQ (ID 1).
	laddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	sock1, err := net.DialUDP("udp", laddr, saddr)
	if err != nil {
		t.Fatal(err)
	}
	port := sock1.LocalAddr().(*net.UDPAddr).Port
	conn1 := NewConn(&rawUDPPipe{sock1}, ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10})
	uc1, err := newUDPClient(sock1)
	if err != nil {
		t.Fatal(err)
	}
	go uc1.Run(conn1.Deliver)
	first := udpCallSync(t, conn1, &Msg{Kind: KindHello})
	if first.Kind != KindHelloAck {
		t.Fatalf("handshake got %v", first.Kind)
	}
	r1 := udpCallSync(t, conn1, &Msg{Kind: KindRREQ, Count: 1})
	if len(r1.Data) != 1 {
		t.Fatalf("first read returned %d bytes", len(r1.Data))
	}
	sock1.Close()

	// Second incarnation reuses the same source port. Its HELLO must reset
	// the session; its RREQ reuses wire ID 1 and must be a fresh execution,
	// not the cached response tagged for the first incarnation.
	sock2, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}, saddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sock2.Close()
	conn2 := NewConn(&rawUDPPipe{sock2}, ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10})
	uc2, err := newUDPClient(sock2)
	if err != nil {
		t.Fatal(err)
	}
	go uc2.Run(conn2.Deliver)
	if h := udpCallSync(t, conn2, &Msg{Kind: KindHello}); h.Kind != KindHelloAck {
		t.Fatalf("re-handshake got %v", h.Kind)
	}
	r2 := udpCallSync(t, conn2, &Msg{Kind: KindRREQ, Count: 1})
	if len(r2.Data) != 1 {
		t.Fatalf("second read returned %d bytes", len(r2.Data))
	}
	if r2.Data[0] == r1.Data[0] {
		t.Fatalf("restarted client received the old incarnation's cached response (tag %d)", r2.Data[0])
	}
	if sm.Active.Load() != 1 || sm.Started.Load() != 2 || sm.Resets.Load() != 1 {
		t.Errorf("sessions live %d started %d reset %d, want 1 2 1 (HELLO replaced, not added)",
			sm.Active.Load(), sm.Started.Load(), sm.Resets.Load())
	}
}

// TestUDPDuplicateHelloKeepsSession: a retransmitted HELLO carrying the
// current session's token must NOT reset the session — wiping the dedup
// cache mid-pipeline would let retransmitted RMWs re-execute.
func TestUDPDuplicateHelloKeepsSession(t *testing.T) {
	var executions atomic.Int32
	handler := func(_, _ *Msg) {
		executions.Add(1)
	}
	server, err := ListenUDP("127.0.0.1:0", nil, func(reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, handler).Deliver
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
	xchg := func(p []byte) {
		t.Helper()
		if _, err := sock.Write(p); err != nil {
			t.Fatal(err)
		}
		sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, MaxDatagram)
		if _, err := sock.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	helloEnc, err := (&Msg{Kind: KindHello, ID: 0, Data: []byte("token-A!")}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	rmwEnc, err := (&Msg{Kind: KindRMWREQ, ID: 1, Addr: 8, Op: 2, Args: []uint64{1}}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	xchg(helloEnc) // handshake: executes
	xchg(rmwEnc)   // RMW: executes
	xchg(helloEnc) // retransmitted HELLO, same token: cached replay, no reset
	xchg(rmwEnc)   // retransmitted RMW: must hit the surviving cache
	if n := executions.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2: duplicate HELLO reset the session", n)
	}
	// A *different* token is a new incarnation and must reset.
	hello2, err := (&Msg{Kind: KindHello, ID: 0, Data: []byte("token-B!")}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	xchg(hello2)
	xchg(rmwEnc)
	if n := executions.Load(); n != 4 {
		t.Fatalf("handler ran %d times, want 4: new token should reset the session", n)
	}
}

// rawUDPPipe adapts a connected socket to Pipe without UDPClient's close
// bookkeeping (the test closes sockets directly).
type rawUDPPipe struct{ conn *net.UDPConn }

func (p *rawUDPPipe) Send(b []byte) error { _, err := p.conn.Write(b); return err }
func (p *rawUDPPipe) Close() error        { return nil }

func udpCallSync(t *testing.T, c *Conn, m *Msg) *Msg {
	t.Helper()
	type res struct {
		m   *Msg
		err error
	}
	ch := make(chan res, 1)
	// Clone into a fresh variable: the response is pooled and valid only
	// during the callback.
	if _, err := c.CallC(m, CompletionFunc(func(r *Msg, err error) {
		var cp *Msg
		if r != nil {
			cp = r.Clone()
		}
		ch <- res{cp, err}
	})); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.m
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed")
		return nil
	}
}

// TestConnDisableRetries: MaxRetries < 0 means single-attempt fail-fast.
func TestConnDisableRetries(t *testing.T) {
	cfg := LoopbackConfig{Fault: func(_ sim.Time, _ Dir, _ []byte) Fault { return FaultDrop }}
	lb := NewLoopback(cfg)
	conn := NewConn(lb.ClientPipe(), ConnConfig{RetryTimeout: 2 * time.Millisecond, MaxRetries: -1})
	lb.BindClient(conn.Deliver)
	ch := make(chan error, 1)
	if _, err := conn.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(func(_ *Msg, err error) { ch <- err })); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ch:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("got %v, want ErrTimeout", err)
		}
	case <-time.After(time.Second):
		t.Fatal("single-attempt call never failed")
	}
	if st := conn.Stats(); st.Sent != 1 || st.Retransmit != 0 {
		t.Fatalf("stats %+v, want exactly one transmission", st)
	}
}
