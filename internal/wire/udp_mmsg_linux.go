//go:build linux && (amd64 || arm64)

// Batched UDP I/O via sendmmsg/recvmmsg. The raw syscalls are issued inside
// the RawConn read/write callbacks so the netpoller keeps scheduling the
// socket (returning false on EAGAIN parks the goroutine until readiness).
// The receive side polls before it parks: see pollWindow.
// The callbacks are method values bound once per socket, so a batch
// allocates nothing, and the scratch msghdr/iovec arrays are heap-allocated:
// the kernel reads them by pointer, and Go stacks — unlike the heap — can
// move.
package wire

import (
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// udpBatchSize is how many datagrams one sendmmsg/recvmmsg call moves.
const udpBatchSize = 16

// txSlotBytes is one slot of a send arena: a message that fits one Ethernet
// frame is copied and batched (at bundleHead into the slot, so it can open a
// bundle without a move), a larger one (which IP would fragment anyway) is
// sent straight from the caller's buffer.
const txSlotBytes = 1536

// pollWindow is how long a receiver keeps polling an empty socket, counted
// from its first empty poll after a datagram, before it parks in the
// netpoller. Parked, each end of a request/response exchange halts its CPU
// and the peer's next send pays a cross-CPU wake-up inside its own syscall;
// polling, the datagram is picked up by the next recvmmsg. The window must be
// longer than one parked round trip (~50 us between two processes on
// loopback): the closed loop is bistable, and a receiver whose window ends
// before the reply to a parked peer can arrive parks again itself, so the
// pair never leaves the parked regime. Measured on udp-read64-w1: 10 us stays
// parked for good, 25 us keeps falling out, 50/100/200 us are alike; 100 us
// leaves a factor of two. It is also all an idle socket costs: one window of
// polite polling per burst of traffic. A constant with that rule, not a knob.
const pollWindow = 100 * time.Microsecond

// soReusePort is SO_REUSEPORT, absent from the frozen stdlib syscall table;
// the value is the asm-generic one both gated arches use.
const soReusePort = 0xf

// sysSendmmsg is the sendmmsg trap number (the stdlib syscall table on
// linux/amd64 predates sendmmsg; defined per-arch in udp_mmsg_*.go).
// recvmmsg is present as syscall.SYS_RECVMMSG on both gated arches.

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// kernel-filled transfer length. syscall.Msghdr is 56 bytes on linux/amd64
// and linux/arm64; the explicit pad reproduces the C struct's 8-byte
// alignment, for 64 bytes per element.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	pad uint32
}

// peerAddr is a remote's kernel sockaddr as recvmmsg captured it, kept raw
// so a reply names its destination without a conversion.
type peerAddr struct {
	sa  syscall.RawSockaddrAny
	len uint32
}

// listenUDPGroup opens GOMAXPROCS sockets on ua as one SO_REUSEPORT group;
// the kernel steers each remote 4-tuple to one member. The first socket
// binds *without* the option and gets it right after: a plain bind keeps
// the port exclusive (a second server on a taken port fails with
// EADDRINUSE, and port 0 never lands on another group of this user, which
// an SO_REUSEPORT autobind may), and the kernel adopts it into the group
// when the second member binds.
func listenUDPGroup(ua *net.UDPAddr) ([]*net.UDPConn, error) {
	first, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	conns := []*net.UDPConn{first}
	rc, err := first.SyscallConn()
	if err == nil {
		err = setReusePort(rc)
	}
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error { return setReusePort(c) }}
	for len(conns) < runtime.GOMAXPROCS(0) && err == nil {
		var pc net.PacketConn
		if pc, err = lc.ListenPacket(context.Background(), "udp", first.LocalAddr().String()); err == nil {
			conns = append(conns, pc.(*net.UDPConn))
		}
	}
	if err != nil {
		closeConns(conns)
		return nil, err
	}
	return conns, nil
}

func setReusePort(c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	}); err != nil {
		return err
	}
	return serr
}

// mmsgTx is a txBatch's sendmmsg vector: n filled headers, transmitted in
// order by flush.
type mmsgTx struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	n     int                   // headers filled
	off   int                   // first header the next trap sends
	errno syscall.Errno         // the first datagram the kernel refused in this flush
	trap  func(fd uintptr) bool // sendmmsgTrap, bound once
}

func newMmsgTx(c *net.UDPConn) (*mmsgTx, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	t := &mmsgTx{rc: rc,
		hdrs: make([]mmsghdr, udpBatchSize),
		iovs: make([]syscall.Iovec, udpBatchSize)}
	t.trap = t.sendmmsgTrap
	return t, nil
}

// push fills the next header with datagram p, addressed to to (nil on a
// connected socket). p must stay valid until flush returns.
func (t *mmsgTx) push(p []byte, to *peerAddr) {
	i := t.n
	t.hdrs[i] = mmsghdr{}
	t.hdrs[i].hdr.Iov = &t.iovs[i]
	t.hdrs[i].hdr.Iovlen = 1
	if to != nil {
		t.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&to.sa))
		t.hdrs[i].hdr.Namelen = to.len
	}
	t.n++
	t.setLast(p)
}

// setLast points the last filled header at p: its datagram grew.
func (t *mmsgTx) setLast(p []byte) {
	iov := &t.iovs[t.n-1]
	*iov = syscall.Iovec{}
	if len(p) > 0 {
		iov.Base = &p[0]
		iov.SetLen(len(p))
	}
}

// flush transmits the filled headers, normally in one sendmmsg. A datagram
// the kernel refuses is skipped as lost — the reliable layer's
// retransmission covers it, same as any dropped datagram — and the first
// refusal is returned once the rest are out.
func (t *mmsgTx) flush() error {
	var err error
	t.errno = 0
	for t.off = 0; t.off < t.n && err == nil; {
		err = t.rc.Write(t.trap)
	}
	t.n = 0
	if err == nil && t.errno != 0 {
		err = t.errno
	}
	return err
}

func (t *mmsgTx) sendmmsgTrap(fd uintptr) bool {
	r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&t.hdrs[t.off])), uintptr(t.n-t.off), 0, 0, 0)
	if errno == syscall.EAGAIN {
		return false
	}
	if errno != 0 || r1 == 0 {
		if t.errno == 0 {
			t.errno = errno
		}
		r1 = 1 // the head datagram failed: drop it, carry on with the rest
	}
	t.off += int(r1)
	return true
}

// txBatch is one socket's outbound half, the same type at both ends: a
// client's requests (UDPClient.Send) and an ingress loop's replies
// queue here. add copies a message into an arena slot, so the caller's
// buffer is free when add returns. Between cork and flush transmission is
// deferred and consecutive messages to one peer share a datagram, a bundle
// of up to maxBundle bytes (see bundleMarker); flush sends the arena in one
// sendmmsg. Nothing waits for more: a flush sends what is there, and there
// is no timer. Uncorked, add transmits at once, so a Send from another
// goroutine never waits for traffic. cork/flush pairs nest.
type txBatch struct {
	mu     sync.Mutex
	tx     *mmsgTx      // guarded by mu
	arena  []byte       // guarded by mu: udpBatchSize slots of txSlotBytes
	to     *peerAddr    // guarded by mu: the destination of the last queued datagram
	open   int          // guarded by mu: that datagram's length as a bundle; 0: it cannot grow
	msgs   int          // guarded by mu: messages queued since the last flush
	lone   int          // guarded by mu: queued datagrams that carry one message
	joined bool         // guarded by mu: the last queued datagram carries more than one
	corked int          // guarded by mu: cork nesting depth
	m      UDPTxMetrics // set at construction; its counters are atomic
}

func newTxBatch(c *net.UDPConn, m UDPTxMetrics) (*txBatch, error) {
	tx, err := newMmsgTx(c)
	return &txBatch{tx: tx, m: m, arena: make([]byte, udpBatchSize*txSlotBytes)}, err
}

func (b *txBatch) cork() {
	b.mu.Lock()
	b.corked++
	b.mu.Unlock()
}

// add queues message p for to. It joins the last queued datagram when that
// one goes to the same peer and has room, else takes a slot of its own (a
// full arena is flushed first) with the marker and its length written in
// front, so the lone message is sent plain and a second one turns the slot
// into a bundle in place. A message larger than a slot flushes the queue
// and then goes out directly, so order holds.
//
//edmlint:hotpath once per message
func (b *txBatch) add(p []byte, to *peerAddr) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(p) > txSlotBytes-bundleHead {
		b.flushLocked() // its only error, a closed socket, fails the next flush too
		b.tx.push(p, to)
		b.msgs, b.lone = 1, 1
		return b.flushLocked()
	}
	if b.open > 0 && to == b.to && b.open+bundleLenBytes+len(p) <= maxBundle {
		slot := b.arena[(b.tx.n-1)*txSlotBytes:]
		binary.LittleEndian.PutUint16(slot[b.open:], uint16(len(p)))
		b.open += bundleLenBytes + copy(slot[b.open+bundleLenBytes:], p)
		b.tx.setLast(slot[:b.open])
		if !b.joined {
			b.joined = true
			b.lone--
		}
	} else {
		if b.tx.n == udpBatchSize {
			b.flushLocked()
		}
		slot := b.arena[b.tx.n*txSlotBytes:]
		slot[0] = bundleMarker
		binary.LittleEndian.PutUint16(slot[1:], uint16(len(p)))
		b.open = bundleHead + copy(slot[bundleHead:], p)
		b.to, b.joined = to, false
		b.lone++
		b.tx.push(slot[bundleHead:b.open], to)
	}
	b.msgs++
	if b.corked == 0 {
		return b.flushLocked()
	}
	return nil
}

// flush ends a cork: the outermost one transmits what queued.
//
//edmlint:hotpath once per receive batch
func (b *txBatch) flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.corked > 0 {
		b.corked--
	}
	if b.corked > 0 {
		return nil
	}
	return b.flushLocked()
}

// flushLocked transmits the arena and counts what it sent.
func (b *txBatch) flushLocked() error {
	if b.tx.n == 0 {
		return nil
	}
	b.m.Datagrams.Add(uint64(b.tx.n))
	b.m.Msgs.Add(uint64(b.msgs))
	b.m.Lone.Add(uint64(b.lone))
	b.open, b.msgs, b.lone, b.to = 0, 0, 0, nil
	return b.tx.flush()
}

// batchReceiver drains a UDP socket up to udpBatchSize datagrams per
// recvmmsg into buffers it owns and reuses: a received packet is valid only
// until the next recv call. With capture set it also records each packet's
// source address (the server's demux key and reply destination). It is one
// goroutine's: only the counters may be read from outside.
type batchReceiver struct {
	rc    syscall.RawConn
	bufs  [][]byte
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny // nil without capture
	got   int                      // datagrams in the last batch
	errno syscall.Errno            // the last trap's failure
	trap  func(fd uintptr) bool    // recvmmsgTrap, bound once

	idleSince time.Time // the first empty poll since the last datagram; zero: none yet
	park      bool      // idleSince is pollWindow old: the next empty poll parks
	yield     func()    // yields the P on an empty poll; nil: runtime.Gosched
	m         UDPRxMetrics
}

func newBatchReceiver(c *net.UDPConn, capture bool, m UDPRxMetrics) (*batchReceiver, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	r := &batchReceiver{rc: rc, m: m,
		bufs: make([][]byte, udpBatchSize),
		hdrs: make([]mmsghdr, udpBatchSize),
		iovs: make([]syscall.Iovec, udpBatchSize)}
	if capture {
		r.names = make([]syscall.RawSockaddrAny, udpBatchSize)
	}
	for i := range r.bufs {
		r.bufs[i] = make([]byte, MaxDatagram+1)
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].SetLen(len(r.bufs[i]))
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
		if capture {
			r.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		}
	}
	r.trap = r.recvmmsgTrap
	return r, nil
}

// recvBatch waits for at least one datagram and returns how many arrived.
// It waits by poll-then-park: for pollWindow after traffic an empty socket is
// polled again, and every empty poll first yields both the P (yield, or
// Gosched: the issuer, retransmission clock and sibling loops of a
// GOMAXPROCS-1 process run) and the CPU (sched_yield: a peer process sharing
// the core runs; without it two pollers on one CPU each wait out the other's
// timeslice). Past the window it parks in the netpoller. The clock is read
// once per empty poll, never per datagram or per non-empty batch.
//
//edmlint:hotpath once per receive batch
//edmlint:allow walltime the poll window is real time by nature: it is sized against a kernel wake-up
func (r *batchReceiver) recvBatch() (int, error) {
	if r.names != nil {
		// Namelen is in/out: the kernel shrank it to each source's size.
		for i := range r.hdrs {
			r.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(r.names[i]))
		}
	}
	for {
		r.got, r.errno = 0, 0
		if err := r.rc.Read(r.trap); err != nil {
			return 0, err
		}
		if r.errno != 0 {
			return 0, r.errno
		}
		if r.got > 0 {
			r.idleSince, r.park = time.Time{}, false
			return r.got, nil
		}
		switch {
		case r.idleSince.IsZero():
			r.idleSince = time.Now()
		case time.Since(r.idleSince) >= pollWindow:
			r.park = true
			continue
		}
		if r.yield != nil {
			r.yield()
		} else {
			runtime.Gosched()
		}
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// recvmmsgTrap returns false only to park: on an empty socket past the poll
// window. ECONNREFUSED is the pending error an ICMP port-unreachable left on
// a connected socket (the peer is down or restarting); the call that reports
// it consumes it, the socket is as good as before, and it reads as an empty
// poll. Any other errno ends the receiver.
func (r *batchReceiver) recvmmsgTrap(fd uintptr) bool {
	r1, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&r.hdrs[0])), udpBatchSize, 0, 0, 0)
	switch {
	case errno == syscall.EAGAIN && r.park:
		r.m.Parks.Inc()
		return false
	case errno == syscall.EAGAIN || errno == syscall.ECONNREFUSED:
		r.m.EmptyPolls.Inc()
	case errno != 0:
		r.errno = errno
	default:
		r.got = int(r1)
	}
	return true
}

// pkt returns packet i of the last recv; valid until the next recv.
func (r *batchReceiver) pkt(i int) []byte { return r.bufs[i][:r.hdrs[i].n] }

// peer returns packet i's raw source address, for addressing replies.
func (r *batchReceiver) peer(i int) peerAddr {
	return peerAddr{sa: r.names[i], len: r.hdrs[i].hdr.Namelen}
}

// src decodes packet i's source address into the comparable session key.
// Ports arrive big-endian; the gated platforms are little-endian, so the
// swap is unconditional. A dual-stack socket reports IPv4 peers as
// IPv4-mapped; Unmap gives them the same key and name a v4 socket would.
func (r *batchReceiver) src(i int) netip.AddrPort {
	sa := &r.names[i]
	switch sa.Addr.Family {
	case syscall.AF_INET:
		a := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(a.Addr), ntohs(a.Port))
	case syscall.AF_INET6:
		a := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		ip := netip.AddrFrom16(a.Addr).Unmap()
		if a.Scope_id != 0 {
			ip = ip.WithZone(strconv.FormatUint(uint64(a.Scope_id), 10))
		}
		return netip.AddrPortFrom(ip, ntohs(a.Port))
	}
	return netip.AddrPort{}
}

func ntohs(v uint16) uint16 { return v<<8 | v>>8 }
