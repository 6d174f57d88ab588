package rmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// loopClient stands up a server (if nil, a fresh one) and a connected client
// over a loopback with the given fault hook.
func loopClient(t *testing.T, srv *Server, ccfg ClientConfig, fault func(sim.Time, wire.Dir, []byte) wire.Fault) (*Server, *Client, *wire.Loopback) {
	t.Helper()
	if srv == nil {
		var err error
		srv, err = NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 20}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if ccfg.Retry.RetryTimeout == 0 {
		ccfg.Retry = wire.ConnConfig{RetryTimeout: 5 * time.Millisecond, MaxRetries: 4}
	}
	lb := wire.NewLoopback(wire.LoopbackConfig{Fault: fault})
	client := NewClient(lb.ClientPipe(), ccfg)
	lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
	lb.BindClient(client.Deliver)
	if err := client.Connect(); err != nil {
		t.Fatalf("connect: %v", err)
	}
	return srv, client, lb
}

func TestHandshakeAdoptsGeometry(t *testing.T) {
	srv, client, _ := loopClient(t, nil, ClientConfig{}, nil)
	if got, want := client.Geometry(), srv.Geometry(); got != want {
		t.Fatalf("client geometry %+v, server %+v", got, want)
	}
	if st := srv.Stats(); st.Hellos != 1 {
		t.Errorf("server stats %+v", st)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	_, client, _ := loopClient(t, nil, ClientConfig{}, nil)
	data := bytes.Repeat([]byte{0xc3}, 512)
	if err := client.WriteSync(4096, data); err != nil {
		t.Fatal(err)
	}
	got, err := client.ReadSync(4096, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different bytes than written")
	}
	// Unwritten memory reads as zero, like fresh DRAM in the model.
	zero, err := client.ReadSync(64<<10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, make([]byte, 16)) {
		t.Fatal("fresh memory not zero")
	}
}

func TestRemoteErrors(t *testing.T) {
	srv, client, _ := loopClient(t, nil, ClientConfig{}, nil)
	slab := srv.Geometry().SlabBytes
	if _, err := client.ReadSync(slab, 8); !errors.Is(err, wire.ErrRemote) {
		t.Errorf("out-of-range read: %v", err)
	}
	if err := client.WriteSync(slab-4, make([]byte, 8)); !errors.Is(err, wire.ErrRemote) {
		t.Errorf("out-of-range write: %v", err)
	}
	if _, err := client.RMWSync(3, memctl.OpFetchAdd, 1); !errors.Is(err, wire.ErrRemote) {
		t.Errorf("unaligned RMW: %v", err)
	}
	if _, err := client.RMWSync(0, memctl.RMWOp(99), 1); !errors.Is(err, wire.ErrRemote) {
		t.Errorf("bad opcode: %v", err)
	}
	if st := srv.Stats(); st.Errors != 4 {
		t.Errorf("server error count %d, want 4 (%+v)", st.Errors, st)
	}
}

func TestRMWMenu(t *testing.T) {
	_, client, _ := loopClient(t, nil, ClientConfig{}, nil)
	const addr = 128
	if _, err := client.RMWSync(addr, memctl.OpSwap, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := client.RMWSync(addr, memctl.OpFetchAdd, 3); err != nil || v != 7 {
		t.Fatalf("fetch-add: %d, %v", v, err)
	}
	if v, err := client.RMWSync(addr, memctl.OpCAS, 10, 42); err != nil || v != 1 {
		t.Fatalf("cas(10->42): %d, %v", v, err)
	}
	if v, err := client.RMWSync(addr, memctl.OpCAS, 10, 77); err != nil || v != 0 {
		t.Fatalf("cas(stale) should fail: %d, %v", v, err)
	}
	got, err := client.ReadSync(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("final word %v", got)
	}
}

// TestRetransmissionRecovers is the acceptance-path e2e: a dropped datagram
// is retried by the reliable layer and the operation still succeeds.
func TestRetransmissionRecovers(t *testing.T) {
	var mu sync.Mutex
	dropped := 0
	// Drop the first two post-handshake request datagrams.
	fault := func(_ sim.Time, dir wire.Dir, p []byte) wire.Fault {
		mu.Lock()
		defer mu.Unlock()
		var m wire.Msg
		err := wire.DecodeInto(&m, p)
		if err == nil && dir == wire.ToServer && m.Kind == wire.KindWREQ && dropped < 2 {
			dropped++
			return wire.FaultDrop
		}
		return wire.FaultNone
	}
	srv, client, lb := loopClient(t, nil, ClientConfig{}, fault)
	if err := client.WriteSync(0, []byte("persist me")); err != nil {
		t.Fatalf("write across drops: %v", err)
	}
	got, err := client.ReadSync(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist me" {
		t.Fatalf("read back %q", got)
	}
	if dropped != 2 {
		t.Fatalf("fault hook dropped %d datagrams", dropped)
	}
	if st := lb.Stats(); st.Dropped != 2 {
		t.Errorf("loopback stats %+v", st)
	}
	if st := srv.Stats(); st.Writes != 1 {
		t.Errorf("server executed %d writes, want exactly 1 (%+v)", st.Writes, st)
	}
}

// TestDuplicateRMWExactlyOnce: dropping every first response forces a
// retransmission of every request; the responses the session retains must
// keep the fetch-add count exact.
func TestDuplicateRMWExactlyOnce(t *testing.T) {
	seen := map[uint32]bool{}
	var mu sync.Mutex
	fault := func(_ sim.Time, dir wire.Dir, p []byte) wire.Fault {
		if dir != wire.ToClient {
			return wire.FaultNone
		}
		var m wire.Msg
		if err := wire.DecodeInto(&m, p); err != nil || m.Kind != wire.KindRMWRESP {
			return wire.FaultNone
		}
		mu.Lock()
		defer mu.Unlock()
		if !seen[m.ID] {
			seen[m.ID] = true
			return wire.FaultDrop
		}
		return wire.FaultNone
	}
	_, client, _ := loopClient(t, nil, ClientConfig{}, fault)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if _, err := client.RMWSync(0, memctl.OpFetchAdd, 1); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	v, err := client.RMWSync(0, memctl.OpFetchAdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != rounds {
		t.Fatalf("counter = %d after %d increments: duplicates executed", v, rounds)
	}
}

// countingPipe counts the datagrams a session sends.
type countingPipe struct {
	wire.Pipe
	sent int
}

func (p *countingPipe) Send(b []byte) error {
	p.sent++
	return p.Pipe.Send(b)
}

// TestStaleRequestNotReExecuted is finding F1's schedule: a copy of a
// fetch-add request reaches the server after the client has long completed
// it and thousands of newer ops (more than any window of recent IDs would
// remember). It names a call slot the client has reused since, so the
// session drops it: not executed a second time, not answered, counted.
func TestStaleRequestNotReExecuted(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := NewServer(ServerConfig{Responder: wire.NewResponderMetrics(reg),
		Geometry: Geometry{SlabBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	var delayed []byte
	lb := wire.NewLoopback(wire.LoopbackConfig{Fault: func(_ sim.Time, dir wire.Dir, p []byte) wire.Fault {
		if dir == wire.ToServer && delayed == nil && wire.Kind(p[1]) == wire.KindRMWREQ {
			delayed = append([]byte(nil), p...) // the network keeps a copy
		}
		return wire.FaultNone
	}})
	client := NewClient(lb.ClientPipe(), ClientConfig{})
	reply := &countingPipe{Pipe: lb.ServerPipe()}
	sess := srv.NewSession(reply)
	lb.BindServer(sess.Deliver)
	lb.BindClient(client.Deliver)
	if err := client.Connect(); err != nil {
		t.Fatal(err)
	}
	const counter = 4096
	if _, err := client.RMWSync(counter, memctl.OpFetchAdd, 5); err != nil {
		t.Fatal(err)
	}
	if delayed == nil {
		t.Fatal("the fault hook saw no RMWREQ")
	}
	for i := 0; i < wire.MaxSlots+200; i++ {
		if err := client.WriteSync(uint64(i%64)*8, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sent := reply.sent
	sess.Deliver(delayed)
	if reply.sent != sent {
		t.Errorf("the session answered the stale copy with %d datagrams", reply.sent-sent)
	}
	if v, err := client.RMWSync(counter, memctl.OpFetchAdd, 0); err != nil || v != 5 {
		t.Errorf("counter = %d (err %v), want 5: the stale copy executed", v, err)
	}
	if n := reg.Counter("wire_server_stale_total").Load(); n != 1 {
		t.Errorf("wire_server_stale_total = %d, want 1", n)
	}
	if n := reg.Counter("wire_server_replays_total").Load(); n != 0 {
		t.Errorf("wire_server_replays_total = %d, want 0", n)
	}
}

// TestRMWAtomicityConcurrentClients hammers one counter word from several
// concurrent client sessions; the slab lock must keep every increment.
func TestRMWAtomicityConcurrentClients(t *testing.T) {
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		clients = 4
		rounds  = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		_, client, _ := loopClient(t, srv, ClientConfig{}, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			for j := 0; j < rounds; j++ {
				if _, err := client.RMWSync(0, memctl.OpFetchAdd, 1); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_, check, _ := loopClient(t, srv, ClientConfig{}, nil)
	v, err := check.RMWSync(0, memctl.OpFetchAdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != clients*rounds {
		t.Fatalf("counter = %d, want %d: lost increments under concurrency", v, clients*rounds)
	}
}

// TestWindowFailFast mirrors edm.ErrTooManyOut: with the transport dark and
// the window full, the next op is rejected immediately.
func TestWindowFailFast(t *testing.T) {
	fault := func(_ sim.Time, dir wire.Dir, _ []byte) wire.Fault {
		if dir == wire.ToServer {
			return wire.FaultDrop
		}
		return wire.FaultNone
	}
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A dark transport: requests vanish, so the window fills and stays full.
	dark := wire.NewLoopback(wire.LoopbackConfig{Fault: fault})
	darkClient := NewClient(dark.ClientPipe(),
		ClientConfig{Window: 4, Retry: wire.ConnConfig{RetryTimeout: time.Minute, MaxRetries: 1}})
	dark.BindServer(srv.NewSession(dark.ServerPipe()).Deliver)
	dark.BindClient(darkClient.Deliver)
	// Handshake would hang (requests dropped); skip Connect and use raw reads.
	for i := 0; i < 4; i++ {
		if err := darkClient.Read(0, 8, func([]byte, error) {}); err != nil {
			t.Fatalf("read %d rejected early: %v", i, err)
		}
	}
	if err := darkClient.Read(0, 8, func([]byte, error) {}); !errors.Is(err, ErrTooManyOut) {
		t.Fatalf("5th read: %v, want ErrTooManyOut", err)
	}
	if st := darkClient.Stats(); st.WindowFull != 1 {
		t.Errorf("client stats %+v", st)
	}
	darkClient.Close()
}

// TestSharedMetricsWindowSums: clients sharing one ClientMetrics (a
// cluster's node clients) move its Window gauge by their own in-flight ops,
// so it reads the sum over them, and 0 once every op has completed.
func TestSharedMetricsWindowSums(t *testing.T) {
	var dark atomic.Bool
	fault := func(_ sim.Time, dir wire.Dir, _ []byte) wire.Fault {
		if dir == wire.ToServer && dark.Load() {
			return wire.FaultDrop
		}
		return wire.FaultNone
	}
	m := NewClientMetrics(nil)
	ccfg := ClientConfig{Metrics: m, Retry: wire.ConnConfig{RetryTimeout: 2 * time.Millisecond, MaxRetries: 1000}}
	_, a, _ := loopClient(t, nil, ccfg, fault)
	_, b, _ := loopClient(t, nil, ccfg, fault)
	defer a.Close()
	defer b.Close()

	dark.Store(true)
	var wg sync.WaitGroup
	for i, c := range []*Client{a, a, a, b, b} {
		wg.Add(1)
		if err := c.Read(uint64(i)*8, 8, func(_ []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Window.Load(); got != 5 {
		t.Errorf("Window with 3 + 2 ops in flight = %d, want 5", got)
	}
	dark.Store(false)
	wg.Wait()
	if got := m.Window.Load(); got != 0 {
		t.Errorf("Window after both drained = %d, want 0", got)
	}
}

// TestClientIssueContract pins what issuing an op promises, for each kind of
// op: at a full window it fails with ErrTooManyOut, counted once in
// WindowFull and not in Issued; an op in flight at Close completes exactly
// once, with wire.ErrClosed; an op issued after Close fails with ErrClosed.
// The callback of an op that fails at issue never runs.
func TestClientIssueContract(t *testing.T) {
	const depth = 2
	for _, tc := range []struct {
		kind  string
		issue func(c *Client, done func(error)) error
	}{
		{"read", func(c *Client, done func(error)) error {
			return c.Read(0, 8, func(_ []byte, err error) { done(err) })
		}},
		{"write", func(c *Client, done func(error)) error {
			return c.Write(0, []byte{1}, done)
		}},
		{"rmw", func(c *Client, done func(error)) error {
			return c.RMW(0, memctl.OpFetchAdd, []uint64{1}, func(_ uint64, err error) { done(err) })
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			var dark atomic.Bool
			_, c, _ := loopClient(t, nil, ClientConfig{Window: depth,
				Retry: wire.ConnConfig{RetryTimeout: time.Minute, MaxRetries: 1}},
				func(_ sim.Time, dir wire.Dir, _ []byte) wire.Fault {
					if dark.Load() && dir == wire.ToServer {
						return wire.FaultDrop
					}
					return wire.FaultNone
				})
			// Op i's callback runs and last outcome: depth ops in flight,
			// then one past the window, then one after Close.
			var runs [depth + 2]int
			var errs [depth + 2]error
			issue := func(i int) error {
				return tc.issue(c, func(err error) { runs[i]++; errs[i] = err })
			}
			dark.Store(true) // requests vanish, so issued ops stay in flight
			for i := 0; i < depth; i++ {
				if err := issue(i); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			before := c.Stats()
			if err := issue(depth); !errors.Is(err, ErrTooManyOut) {
				t.Fatalf("op past the window: %v, want ErrTooManyOut", err)
			}
			if st := c.Stats(); st.WindowFull != before.WindowFull+1 || st.Issued != before.Issued {
				t.Errorf("a rejection moved WindowFull %d -> %d and Issued %d -> %d, want +1 and +0",
					before.WindowFull, st.WindowFull, before.Issued, st.Issued)
			}
			dark.Store(false) // the BYE gets through
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if err := issue(depth + 1); !errors.Is(err, ErrClosed) {
				t.Errorf("op after Close: %v, want ErrClosed", err)
			}
			for i := 0; i < depth; i++ {
				if runs[i] != 1 || !errors.Is(errs[i], wire.ErrClosed) {
					t.Errorf("op %d in flight at Close: callback ran %d times, last with %v; want once with wire.ErrClosed",
						i, runs[i], errs[i])
				}
			}
			if runs[depth] != 0 || runs[depth+1] != 0 {
				t.Errorf("callbacks of ops that failed at issue ran %d and %d times", runs[depth], runs[depth+1])
			}
		})
	}
}

// TestHelloAckLayout pins the HELLO-ACK payload: 16 bytes, the slab size
// then eight zero bytes. A payload from an older edmd, whose last eight
// bytes carried a slot layout, decodes to its slab size alone; a payload of
// any other length is rejected.
func TestHelloAckLayout(t *testing.T) {
	const slab = 1 << 20
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: slab}})
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.Msg
	srv.Handle(&wire.Msg{Kind: wire.KindHello}, &ack)
	for _, p := range [][]byte{Geometry{SlabBytes: slab}.Encode(), ack.Data} {
		if len(p) != 16 || binary.LittleEndian.Uint64(p) != slab || !bytes.Equal(p[8:], make([]byte, 8)) {
			t.Errorf("payload %x, want the slab size and eight zero bytes", p)
		}
	}
	older := binary.LittleEndian.AppendUint64(nil, slab)
	older = binary.LittleEndian.AppendUint32(older, 256)  // slots
	older = binary.LittleEndian.AppendUint32(older, 4096) // bytes per slot
	if g, err := DecodeGeometry(older); err != nil || g != (Geometry{SlabBytes: slab}) {
		t.Errorf("older payload decoded to %+v, %v", g, err)
	}
	for _, n := range []int{0, 8, 15, 17, 24} {
		if _, err := DecodeGeometry(make([]byte, n)); err == nil {
			t.Errorf("%d-byte payload accepted", n)
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g := srv.Geometry(); g.SlabBytes == 0 {
		t.Fatalf("defaults not filled: %+v", g)
	}
}

// TestUDPEndToEnd runs the full stack over real sockets: UDP server glue,
// handshake, reads/writes/RMWs from two concurrent clients.
func TestUDPEndToEnd(t *testing.T) {
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	us, err := wire.ListenUDP("127.0.0.1:0", nil, func(reply wire.Pipe) func([]byte) {
		return srv.NewSession(reply).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	dial := func() *Client {
		uc, err := wire.DialUDP(us.Addr())
		if err != nil {
			t.Fatal(err)
		}
		client := NewClient(uc, ClientConfig{Retry: wire.ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10}})
		go uc.Run(client.Deliver)
		if err := client.Connect(); err != nil {
			t.Fatal(err)
		}
		return client
	}

	// The shared counter sits at address 0, below the per-client addresses
	// written after it.
	const counter = 0
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		i := i
		client := dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			for j := 0; j < 50; j++ {
				if _, err := client.RMWSync(counter, memctl.OpFetchAdd, 1); err != nil {
					errs <- fmt.Errorf("client %d rmw %d: %w", i, j, err)
					return
				}
			}
			val := []byte(fmt.Sprintf("client-%d", i))
			addr := uint64(i+1) * 256
			if err := client.WriteSync(addr, val); err != nil {
				errs <- err
				return
			}
			got, err := client.ReadSync(addr, len(val))
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, val) {
				errs <- fmt.Errorf("client %d read back %q", i, got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check := dial()
	defer check.Close()
	v, err := check.RMWSync(counter, memctl.OpFetchAdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Fatalf("UDP concurrent counter = %d, want 100", v)
	}
}

// TestReadCallbackReentrancyKeepsData: on the loopback a read callback runs
// inside the server's Send of the very datagram its data slice views (the
// client decodes in place). The ops it issues from inside that callback, more
// than the session has call slots, rebuild the session's other responses in
// place; its own slot is held on both ends by the send it is still inside
// (the client's sending count, the responder's waiters pin), so the
// callback's own 16 KiB must still be intact afterwards.
func TestReadCallbackReentrancyKeepsData(t *testing.T) {
	const (
		size   = 16384
		window = 8
		base   = 1 << 19
	)
	srv, err := NewServer(ServerConfig{DupWindow: window,
		Geometry: Geometry{SlabBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	_, client, _ := loopClient(t, srv, ClientConfig{}, nil)
	fill := func(seed int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(seed + i*31)
		}
		return b
	}
	for i := 0; i <= window+1; i++ {
		if err := client.WriteSync(uint64(i)*size, fill(i)); err != nil {
			t.Fatal(err)
		}
	}
	outer, inner := 0, 0
	err = client.Read(0, size, func(d []byte, err error) {
		outer++
		if err != nil {
			t.Errorf("outer read: %v", err)
			return
		}
		for i := 1; i <= window+1; i++ {
			var ierr error
			if i%2 == 0 {
				ierr = client.Write(base+uint64(i)*size, fill(100+i), func(err error) {
					inner++
					if err != nil {
						t.Errorf("nested write %d: %v", i, err)
					}
				})
			} else {
				want := fill(i)
				ierr = client.Read(uint64(i)*size, size, func(nd []byte, err error) {
					inner++
					if err != nil || !bytes.Equal(nd, want) {
						t.Errorf("nested read %d: wrong bytes (err %v)", i, err)
					}
				})
			}
			if ierr != nil {
				t.Errorf("nested op %d: %v", i, ierr)
			}
		}
		if inner != window+1 {
			t.Errorf("%d nested ops completed inside the callback, want %d", inner, window+1)
		}
		if !bytes.Equal(d, fill(0)) {
			t.Error("the callback's own data changed under the ops it issued")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if outer != 1 {
		t.Fatalf("outer callback ran %d times", outer)
	}
	if st := srv.Stats(); st.Errors != 0 {
		t.Fatalf("server errors: %+v", st)
	}
}
