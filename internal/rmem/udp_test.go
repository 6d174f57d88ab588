// Tests for the run-to-completion UDP server path (wire.UDPServer's ingress
// loops) under the real rmem stack. Run with -race.
package rmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/memctl"
	"repro/internal/wire"
)

// udpListen mounts srv on a UDP listener the way cmd/edmd does, counting on
// m (nil: a private instance).
func udpListen(t testing.TB, srv *Server, m *wire.UDPServerMetrics) *wire.UDPServer {
	t.Helper()
	us, err := wire.ListenUDP("127.0.0.1:0", m, func(reply wire.Pipe) func([]byte) {
		return srv.NewSession(reply).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { us.Close() })
	return us
}

// udpDial connects one client session to addr.
func udpDial(t testing.TB, addr string, cfg ClientConfig) *Client {
	t.Helper()
	uc, err := wire.DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(uc, cfg)
	go uc.Run(client.Deliver)
	if err := client.Connect(); err != nil {
		t.Fatal(err)
	}
	return client
}

// window keeps a bounded number of asynchronous ops in flight from one
// issuing goroutine and collects their failures.
type window struct {
	sem  chan struct{}
	mu   sync.Mutex
	errs []error
}

func newWindow(n int) *window { return &window{sem: make(chan struct{}, n)} }

func (w *window) acquire() { w.sem <- struct{}{} }

// done releases the slot an op held, recording err if it failed.
func (w *window) done(err error) {
	if err != nil {
		w.mu.Lock()
		w.errs = append(w.errs, err)
		w.mu.Unlock()
	}
	<-w.sem
}

// drain waits for every outstanding op and reports the failures.
func (w *window) drain(t *testing.T) {
	t.Helper()
	for i := 0; i < cap(w.sem); i++ {
		w.sem <- struct{}{}
	}
	for i := 0; i < cap(w.sem); i++ {
		<-w.sem
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, err := range w.errs {
		t.Error(err)
	}
	w.errs = nil
}

// TestUDPExactlyOnceOneCore is the regression for a request overtaken by
// its own retransmission: on one core the old worker pool could park a
// worker holding a request while thousands of newer IDs went by, and the
// retransmission re-executed it. A loop that runs each datagram to
// completion cannot be overtaken. Stack defaults throughout: 4096 call
// slots, 20 ms x 5 retries.
//
// Exactly-once is asserted on every op. "No reply sits for a whole retry
// timeout" is a timing property the host can break by descheduling the
// whole process, so it must hold on one of three rounds, not on each.
func TestUDPExactlyOnceOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		sessions = 4
		opsPer   = 4000
		counters = 8
		rounds   = 3
	)
	respMetrics := wire.NewResponderMetrics(nil)
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 20}, Responder: respMetrics})
	if err != nil {
		t.Fatal(err)
	}
	us := udpListen(t, srv, nil)
	one := []uint64{1}
	ran, replays := 0, uint64(0)
	for ran < rounds {
		ran++
		before := respMetrics.Duplicates.Load()
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			client := udpDial(t, us.Addr(), ClientConfig{Window: 32})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer client.Close()
				w := newWindow(32)
				cb := func(_ uint64, err error) { w.done(err) }
				for i := 0; i < opsPer; i++ {
					w.acquire()
					if err := client.RMW(uint64(i%counters)*8, memctl.OpFetchAdd, one, cb); err != nil {
						w.done(err)
					}
				}
				w.drain(t)
			}()
		}
		wg.Wait()
		if replays = respMetrics.Duplicates.Load() - before; replays == 0 {
			break
		}
		t.Logf("round %d: %d replays", ran, replays)
	}
	if replays != 0 {
		t.Errorf("wire_server_replays_total rose by %d in each of %d rounds, want 0: replies sit for a whole retry timeout", replays, rounds)
	}
	check := udpDial(t, us.Addr(), ClientConfig{})
	defer check.Close()
	want := uint64(ran * sessions * opsPer / counters)
	for c := 0; c < counters; c++ {
		v, err := check.RMWSync(uint64(c)*8, memctl.OpFetchAdd, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Errorf("counter %d = %d, want %d: fetch-adds not exactly-once", c, v, want)
		}
	}
}

// TestUDPSessionsAcrossLoops: with several ingress loops, concurrent
// sessions land on whichever loop the kernel picks, each sees only its own
// data, and every loop's sessions are counted and retired.
func TestUDPSessionsAcrossLoops(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		sessions = 8
		region   = 32 << 10
		block    = 256
	)
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: sessions * region}})
	if err != nil {
		t.Fatal(err)
	}
	m := wire.NewUDPServerMetrics(nil)
	us := udpListen(t, srv, m)
	// Eight sessions' handshakes and 32-deep windows at GOMAXPROCS(4) can
	// outlast the default 20 ms x 5 retry budget on a loaded two-CPU host.
	// The repository benchmark's budget, 10 ms x 100 (about a second),
	// keeps a descheduled process from failing a handshake or an op.
	retry := wire.ConnConfig{RetryTimeout: 10 * time.Millisecond, MaxRetries: 100}
	clients := make([]*Client, sessions)
	for s := range clients {
		clients[s] = udpDial(t, us.Addr(), ClientConfig{Window: 32, Retry: retry})
	}
	if got := m.Active.Load(); got != sessions {
		t.Fatalf("live sessions = %d, want %d", got, sessions)
	}
	var wg sync.WaitGroup
	for s, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := uint64(s) * region
			w := newWindow(32)
			wcb := func(err error) { w.done(err) }
			buf := make([]byte, block)
			for off := uint64(0); off < region; off += block {
				fillPattern(buf, base+off, byte(s))
				w.acquire()
				if err := client.Write(base+off, buf, wcb); err != nil {
					w.done(err)
				}
			}
			w.drain(t)
			for off := uint64(0); off < region; off += block {
				addr := base + off
				w.acquire()
				if err := client.Read(addr, block, func(d []byte, err error) {
					if err == nil {
						err = checkPattern(d, addr, byte(s))
					}
					w.done(err)
				}); err != nil {
					w.done(err)
				}
			}
			w.drain(t)
		}()
	}
	wg.Wait()
	for _, client := range clients {
		client.Close()
	}
	if got, retired := m.Active.Load(), m.Retired.Load(); got != 0 || retired != sessions {
		t.Errorf("after every BYE: %d sessions live, %d retired; want 0, %d", got, retired, sessions)
	}
}

// TestUDPOversizeRepliesKeepOrder interleaves 16 KiB reads — larger than a
// reply-arena slot, so sent directly after flushing the queue — with 64 B
// reads, writes and their read-backs in one pipelined session, and verifies
// every byte.
func TestUDPOversizeRepliesKeepOrder(t *testing.T) {
	const (
		big    = 16 << 10
		small  = 64
		rounds = 300
		roSize = 1 << 20 // prefilled, read-only
	)
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 2 * roSize}})
	if err != nil {
		t.Fatal(err)
	}
	us := udpListen(t, srv, nil)
	client := udpDial(t, us.Addr(), ClientConfig{Window: 16})
	defer client.Close()
	buf := make([]byte, big)
	for addr := uint64(0); addr < roSize; addr += big {
		fillPattern(buf, addr, 0xA5)
		if err := client.WriteSync(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	w := newWindow(16)
	read := func(addr uint64, n int, tag byte) {
		w.acquire()
		if err := client.Read(addr, n, func(d []byte, err error) {
			if err == nil && len(d) != n {
				err = fmt.Errorf("read %d@%#x returned %d bytes", n, addr, len(d))
			}
			if err == nil {
				err = checkPattern(d, addr, tag)
			}
			w.done(err)
		}); err != nil {
			w.done(err)
		}
	}
	wcb := func(err error) { w.done(err) }
	wbuf := make([]byte, small)
	for i := uint64(0); i < rounds; i++ {
		read((i*big)%roSize, big, 0xA5)
		read((i*7919*small)%roSize, small, 0xA5)
		// A write, then its read-back queued right behind it: the session's
		// loop executes them in arrival order.
		waddr := roSize + (i*small)%roSize
		fillPattern(wbuf, waddr, 0x3C)
		w.acquire()
		if err := client.Write(waddr, wbuf, wcb); err != nil {
			w.done(err)
		}
		read(waddr, small, 0x3C)
	}
	w.drain(t)
}

// TestUDPBundlesForm: with one P, a window of 32 mixed 64 B ops over a real
// socket keeps both ends bundling — each response batch's completions free
// the issuer, whose next requests ride the client's cork, and each request
// bundle is answered in one — at 4 or more messages per datagram each way,
// with every byte and every fetch-add checked.
func TestUDPBundlesForm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		ops      = 20000
		window   = 32
		block    = 64
		region   = 64 << 10 // [0, region) prefilled and read; [region, 2*region) written
		counters = 8        // fetch-added words at 2*region
	)
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 2*region + 4096}})
	if err != nil {
		t.Fatal(err)
	}
	sm := wire.NewUDPServerMetrics(nil)
	us := udpListen(t, srv, sm)
	uc, err := wire.DialUDP(us.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(uc, ClientConfig{Window: window})
	defer client.Close()
	go uc.Run(client.Deliver)
	if err := client.Connect(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, block)
	for addr := uint64(0); addr < region; addr += block {
		fillPattern(buf, addr, 0xA5)
		if err := client.WriteSync(addr, buf); err != nil {
			t.Fatal(err)
		}
	}

	cd0, cm0, cl0 := uc.TxStats()
	sd0, sm0 := sm.Tx.Datagrams.Load(), sm.Tx.Msgs.Load()
	w := newWindow(window)
	wcb := func(err error) { w.done(err) }
	rmwcb := func(_ uint64, err error) { w.done(err) }
	one := []uint64{1}
	var adds [counters]uint64
	for i := uint64(0); i < ops; i++ {
		w.acquire()
		switch i % 10 {
		case 0, 1, 2, 3, 4, 5:
			addr := (i * 7919 * block) % region
			err = client.Read(addr, block, func(d []byte, err error) {
				if err == nil {
					err = checkPattern(d, addr, 0xA5)
				}
				w.done(err)
			})
		case 6, 7, 8: // over 20000 ops these cover every block of the region
			addr := region + (i*block)%region
			fillPattern(buf, addr, 0x3C)
			err = client.Write(addr, buf, wcb)
		default:
			adds[i%counters]++
			err = client.RMW(2*region+(i%counters)*8, memctl.OpFetchAdd, one, rmwcb)
		}
		if err != nil {
			w.done(err)
		}
	}
	w.drain(t)
	cd, cm, cl := uc.TxStats()
	sd, smsgs := sm.Tx.Datagrams.Load(), sm.Tx.Msgs.Load()
	cd, cm, cl, sd, smsgs = cd-cd0, cm-cm0, cl-cl0, sd-sd0, smsgs-sm0
	t.Logf("client %d msgs in %d datagrams (%d lone), server %d in %d", cm, cd, cl, smsgs, sd)
	if cm < ops || smsgs < ops {
		t.Fatalf("counted %d client and %d server messages for %d ops", cm, smsgs, ops)
	}
	// Bundling is built where sendmmsg is (wire's udp_mmsg_linux.go build
	// tag); elsewhere every message is a datagram and only the data is checked.
	bundles := runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")
	if bundles && (cm < 4*cd || smsgs < 4*sd) {
		t.Errorf("messages per datagram: client %.2f, server %.2f, want >= 4 each way",
			float64(cm)/float64(cd), float64(smsgs)/float64(sd))
	}

	for addr := uint64(region); addr < 2*region; addr += block {
		got, err := client.ReadSync(addr, block)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPattern(got, addr, 0x3C); err != nil {
			t.Fatal(err)
		}
	}
	for c, want := range adds {
		if v, err := client.RMWSync(2*region+uint64(c)*8, memctl.OpFetchAdd, 0); err != nil || v != want {
			t.Errorf("counter %d = %d (%v), want %d: fetch-adds not exactly-once", c, v, err, want)
		}
	}
}

// fillPattern writes the 8-byte word pattern for addr (a multiple of 8):
// each word holds its own address mixed with tag, so bytes returned for the
// wrong address or from the wrong session never match.
func fillPattern(b []byte, addr uint64, tag byte) {
	for off := 0; off+8 <= len(b); off += 8 {
		binary.LittleEndian.PutUint64(b[off:], patternWord(addr+uint64(off), tag))
	}
}

func checkPattern(b []byte, addr uint64, tag byte) error {
	for off := 0; off+8 <= len(b); off += 8 {
		if got, want := binary.LittleEndian.Uint64(b[off:]), patternWord(addr+uint64(off), tag); got != want {
			return fmt.Errorf("word at %#x = %#x, want %#x", addr+uint64(off), got, want)
		}
	}
	return nil
}

func patternWord(addr uint64, tag byte) uint64 {
	return (addr/8+1)*0x9E3779B97F4A7C15 ^ uint64(tag)<<56
}

// TestUDPClientSurvivesServerRestart is the cluster Rejoin path over a real
// socket: the memory node goes away (its port answers with ICMP
// port-unreachable, a read burns its retry budget), comes back on the same
// port, and the same UDPClient — same socket, same read loop — connects and
// reads again.
func TestUDPClientSurvivesServerRestart(t *testing.T) {
	listen := func(addr string) (*wire.UDPServer, error) {
		srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 20}})
		if err != nil {
			t.Fatal(err)
		}
		return wire.ListenUDP(addr, nil, func(reply wire.Pipe) func([]byte) {
			return srv.NewSession(reply).Deliver
		})
	}
	us, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := us.Addr()
	client := udpDial(t, addr, ClientConfig{
		Retry: wire.ConnConfig{RetryTimeout: 5 * time.Millisecond, MaxRetries: 3}})
	defer client.Close()
	if err := client.WriteSync(0, []byte("before")); err != nil {
		t.Fatal(err)
	}

	us.Close()
	if _, err := client.ReadSync(0, 6); !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("read against a closed server: %v, want wire.ErrTimeout", err)
	}

	if us, err = listen(addr); err != nil {
		t.Skipf("the port was taken while it was free: %v", err)
	}
	defer us.Close()
	if err := client.Connect(); err != nil {
		t.Fatalf("Connect after the server came back: %v", err)
	}
	if err := client.WriteSync(0, []byte("after!")); err != nil {
		t.Fatal(err)
	}
	if got, err := client.ReadSync(0, 6); err != nil || string(got) != "after!" {
		t.Fatalf("read after the restart: %q, %v", got, err)
	}
}
