//edmlint:allow walltime these tests wait on real retry/timeout deadlines

package wire

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// echoHandler answers every request with its response kind, echoing the
// payload for RREQ-sized checks.
func echoHandler(m, resp *Msg) {
	if m.Kind == KindRREQ {
		resp.Data = growTestData(resp.Data, int(m.Count))
	}
}

// growTestData returns a zeroed slice of n bytes reusing d's capacity.
func growTestData(d []byte, n int) []byte {
	if cap(d) < n {
		return make([]byte, n)
	}
	d = d[:n]
	for i := range d {
		d[i] = 0
	}
	return d
}

// pair wires a Conn and a Responder over a fresh loopback.
// responderCounts reads a ResponderMetrics' counters as one comparable value.
type responderCounts struct{ Requests, Duplicates, Stale, Garbage, Rejected uint64 }

func countsOf(m *ResponderMetrics) responderCounts {
	return responderCounts{m.Requests.Load(), m.Duplicates.Load(), m.Stale.Load(), m.Garbage.Load(), m.Rejected.Load()}
}

func pair(t *testing.T, lcfg LoopbackConfig, ccfg ConnConfig, handler func(req, resp *Msg)) (*Loopback, *Conn, *Responder) {
	t.Helper()
	if handler == nil {
		handler = echoHandler
	}
	lb := NewLoopback(lcfg)
	conn := NewConn(lb.ClientPipe(), ccfg)
	resp := NewResponder(lb.ServerPipe(), ResponderConfig{}, handler)
	lb.BindServer(resp.Deliver)
	lb.BindClient(conn.Deliver)
	return lb, conn, resp
}

// callSync issues one call and waits for its completion.
func callSync(t *testing.T, conn *Conn, m *Msg) (*Msg, error) {
	t.Helper()
	ch := make(chan struct{})
	var resp *Msg
	var cerr error
	if _, err := conn.CallC(m, CompletionFunc(func(r *Msg, err error) {
		// The response is pooled and valid only during the callback.
		if r != nil {
			resp = r.Clone()
		}
		cerr = err
		close(ch)
	})); err != nil {
		return nil, err
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed")
	}
	return resp, cerr
}

func TestConnRoundTrip(t *testing.T) {
	_, conn, resp := pair(t, LoopbackConfig{}, ConnConfig{}, nil)
	r, err := callSync(t, conn, &Msg{Kind: KindRREQ, Addr: 0, Count: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindRRESP || len(r.Data) != 64 {
		t.Fatalf("got %v with %d bytes", r.Kind, len(r.Data))
	}
	if st := countsOf(resp.metrics); st.Requests != 1 || st.Duplicates != 0 {
		t.Errorf("responder stats %+v", st)
	}
	if st := conn.Stats(); st.Responses != 1 || st.Retransmit != 0 {
		t.Errorf("conn stats %+v", st)
	}
}

// TestConnRetransmitAfterDrop is the e2e reliability check: a dropped
// request datagram is retried and the call still succeeds.
func TestConnRetransmitAfterDrop(t *testing.T) {
	drops := 0
	cfg := LoopbackConfig{Fault: func(_ sim.Time, dir Dir, _ []byte) Fault {
		if dir == ToServer && drops == 0 {
			drops++
			return FaultDrop
		}
		return FaultNone
	}}
	lb, conn, resp := pair(t, cfg, ConnConfig{RetryTimeout: 5 * time.Millisecond, MaxRetries: 3}, nil)
	r, err := callSync(t, conn, &Msg{Kind: KindRREQ, Count: 8})
	if err != nil {
		t.Fatalf("call after drop: %v", err)
	}
	if r.Kind != KindRRESP {
		t.Fatalf("got %v", r.Kind)
	}
	if st := conn.Stats(); st.Retransmit != 1 {
		t.Errorf("want 1 retransmit, stats %+v", st)
	}
	if st := countsOf(resp.metrics); st.Requests != 1 {
		t.Errorf("server should have executed once, stats %+v", st)
	}
	if st := lb.Stats(); st.Dropped != 1 {
		t.Errorf("loopback stats %+v", st)
	}
}

// TestConnDuplicateSuppression: a dropped *response* forces a request
// retransmission; the server must replay its cached response without
// re-executing the handler.
func TestConnDuplicateSuppression(t *testing.T) {
	drops := 0
	cfg := LoopbackConfig{Fault: func(_ sim.Time, dir Dir, _ []byte) Fault {
		if dir == ToClient && drops == 0 {
			drops++
			return FaultDrop
		}
		return FaultNone
	}}
	executions := 0
	handler := func(m, resp *Msg) {
		executions++
		echoHandler(m, resp)
	}
	_, conn, resp := pair(t, cfg, ConnConfig{RetryTimeout: 5 * time.Millisecond, MaxRetries: 3}, handler)
	if _, err := callSync(t, conn, &Msg{Kind: KindRMWREQ, Addr: 8, Op: 2, Args: []uint64{1}}); err != nil {
		t.Fatalf("call after response drop: %v", err)
	}
	if executions != 1 {
		t.Fatalf("handler executed %d times; duplicate suppression failed", executions)
	}
	st := countsOf(resp.metrics)
	if st.Requests != 1 || st.Duplicates != 1 {
		t.Errorf("responder stats %+v", st)
	}
}

// TestConnTimeout: with every datagram dropped the call fails with
// ErrTimeout after exhausting its retry budget.
func TestConnTimeout(t *testing.T) {
	cfg := LoopbackConfig{Fault: func(sim.Time, Dir, []byte) Fault { return FaultDrop }}
	_, conn, _ := pair(t, cfg, ConnConfig{RetryTimeout: 2 * time.Millisecond, MaxRetries: 2}, nil)
	_, err := callSync(t, conn, &Msg{Kind: KindRREQ, Count: 8})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	st := conn.Stats()
	if st.Sent != 3 || st.Timeouts != 1 { // 1 attempt + 2 retries
		t.Errorf("conn stats %+v", st)
	}
}

// TestConnCorruptionDetected: a corrupted response fails the CRC at the
// client, which then recovers via retransmission.
func TestConnCorruptionDetected(t *testing.T) {
	hits := 0
	cfg := LoopbackConfig{Fault: func(_ sim.Time, dir Dir, _ []byte) Fault {
		if dir == ToClient && hits == 0 {
			hits++
			return FaultCorrupt
		}
		return FaultNone
	}}
	_, conn, _ := pair(t, cfg, ConnConfig{RetryTimeout: 5 * time.Millisecond, MaxRetries: 3}, nil)
	if _, err := callSync(t, conn, &Msg{Kind: KindRREQ, Count: 32}); err != nil {
		t.Fatalf("call after corruption: %v", err)
	}
	if st := conn.Stats(); st.Garbage != 1 {
		t.Errorf("corrupted datagram not counted: %+v", st)
	}
}

func TestConnCloseFailsPending(t *testing.T) {
	cfg := LoopbackConfig{Fault: func(sim.Time, Dir, []byte) Fault { return FaultDrop }}
	_, conn, _ := pair(t, cfg, ConnConfig{RetryTimeout: time.Second, MaxRetries: 5}, nil)
	ch := make(chan error, 1)
	if _, err := conn.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(func(_ *Msg, err error) { ch <- err })); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ch:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending call got %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("pending call never failed")
	}
	if _, err := conn.CallC(&Msg{Kind: KindRREQ}, CompletionFunc(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on closed conn: %v", err)
	}
}

// TestLoopbackVirtualClock: latencies over the loopback are a pure function
// of datagram sizes, so two identical exchanges cost identical virtual time.
func TestLoopbackVirtualClock(t *testing.T) {
	elapse := func() sim.Time {
		lb, conn, _ := pair(t, LoopbackConfig{}, ConnConfig{}, nil)
		start := lb.Now()
		if _, err := callSync(t, conn, &Msg{Kind: KindRREQ, Count: 1024}); err != nil {
			t.Fatal(err)
		}
		return lb.Now() - start
	}
	a, b := elapse(), elapse()
	if a != b {
		t.Fatalf("virtual cost differs across identical runs: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("virtual clock did not advance: %v", a)
	}
	lb := NewLoopback(LoopbackConfig{})
	lb.AdvanceTo(5 * sim.Microsecond)
	if lb.Now() != 5*sim.Microsecond {
		t.Fatalf("AdvanceTo: %v", lb.Now())
	}
	lb.AdvanceTo(1 * sim.Microsecond) // never goes backwards
	if lb.Now() != 5*sim.Microsecond {
		t.Fatalf("AdvanceTo went backwards: %v", lb.Now())
	}
}

// TestConnPipelined: many overlapping calls over one connection complete
// with their own responses (ID matching), from concurrent goroutines.
func TestConnPipelined(t *testing.T) {
	handler := func(m, resp *Msg) {
		if m.Kind == KindRREQ {
			resp.Data = growTestData(resp.Data, int(m.Count))
			for i := range resp.Data {
				resp.Data[i] = byte(m.Addr)
			}
		}
	}
	_, conn, _ := pair(t, LoopbackConfig{}, ConnConfig{}, handler)
	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan struct{})
			_, err := conn.CallC(&Msg{Kind: KindRREQ, Addr: uint64(i), Count: 16}, CompletionFunc(func(r *Msg, err error) {
				defer close(done)
				if err != nil {
					errs <- err
					return
				}
				for _, b := range r.Data {
					if b != byte(i) {
						errs <- errors.New("response crossed calls")
						return
					}
				}
			}))
			if err != nil {
				errs <- err
				return
			}
			<-done
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestUDPRoundTrip exercises the real-socket path: dial, handshake-free
// echo, close.
func TestUDPRoundTrip(t *testing.T) {
	sm := NewUDPServerMetrics(nil)
	server, err := ListenUDP("127.0.0.1:0", sm, func(reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, echoHandler).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	cl, err := DialUDP(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(cl, ConnConfig{RetryTimeout: 50 * time.Millisecond, MaxRetries: 5})
	go cl.Run(conn.Deliver)
	defer conn.Close()

	for i := 0; i < 10; i++ {
		r, err := callSync(t, conn, &Msg{Kind: KindRREQ, Count: 512})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if r.Kind != KindRRESP || len(r.Data) != 512 {
			t.Fatalf("call %d: %v %d bytes", i, r.Kind, len(r.Data))
		}
	}
	if sm.Active.Load() != 1 || sm.Started.Load() != 1 {
		t.Errorf("sessions live %d started %d, want 1 1", sm.Active.Load(), sm.Started.Load())
	}
}
