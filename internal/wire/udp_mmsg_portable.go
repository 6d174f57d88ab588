//go:build !(linux && (amd64 || arm64))

// Portable single-datagram stand-ins for the batched UDP I/O in
// udp_mmsg_linux.go: same txBatch/batchReceiver API, one socket, one ingress
// loop, one Write or ReadFromUDPAddrPort per datagram: blocking reads; no
// poll window; no bundling on send (the receive paths still split a bundle
// from a Linux peer: the splitter is shared). Platforms without a verified
// mmsghdr layout take this path; correctness is identical, only the
// per-datagram syscall amortization, the bundling, the SO_REUSEPORT spread
// over cores and the wake-up the poll window saves per unloaded round trip
// are lost.
package wire

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
)

// udpBatchSize is how many datagrams one receive call can return.
const udpBatchSize = 1

// peerAddr is a reply's destination.
type peerAddr struct{ ap netip.AddrPort }

// listenUDPGroup opens the listener's one socket.
func listenUDPGroup(ua *net.UDPAddr) ([]*net.UDPConn, error) {
	c, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	return []*net.UDPConn{c}, nil
}

// txBatch sends each message as it is added, in a datagram of its own:
// there is nothing to cork and nothing to bundle.
type txBatch struct {
	c *net.UDPConn
	m UDPTxMetrics
}

func newTxBatch(c *net.UDPConn, m UDPTxMetrics) (*txBatch, error) {
	return &txBatch{c: c, m: m}, nil
}

func (b *txBatch) cork() {}

// add sends p to to, or over the connected socket when to is nil.
func (b *txBatch) add(p []byte, to *peerAddr) error {
	var err error
	if to == nil {
		_, err = b.c.Write(p)
	} else {
		_, err = b.c.WriteToUDPAddrPort(p, to.ap)
	}
	b.m.Datagrams.Inc()
	b.m.Msgs.Inc()
	b.m.Lone.Inc()
	return err
}

func (b *txBatch) flush() error { return nil }

// batchReceiver reads one datagram at a time into a buffer it owns and
// reuses: a received packet is valid only until the next recv call.
type batchReceiver struct {
	c       *net.UDPConn
	capture bool
	buf     []byte
	n       int
	from    netip.AddrPort
	yield   func() // unused: a blocking read has no empty poll to yield on
	m       UDPRxMetrics
}

func newBatchReceiver(c *net.UDPConn, capture bool, m UDPRxMetrics) (*batchReceiver, error) {
	return &batchReceiver{c: c, capture: capture, m: m, buf: make([]byte, MaxDatagram+1)}, nil
}

// recvBatch blocks for one datagram and returns 1. Every read counts as a
// park (it cannot be seen whether it waited) and none as an empty poll. A
// read refused because of an earlier ICMP port-unreachable consumed that
// pending error; the socket is as good as before, so it reads again.
func (r *batchReceiver) recvBatch() (int, error) {
	for {
		var err error
		r.m.Parks.Inc()
		if r.capture {
			r.n, r.from, err = r.c.ReadFromUDPAddrPort(r.buf)
		} else {
			r.n, err = r.c.Read(r.buf)
		}
		if err == nil {
			return 1, nil
		}
		if !errors.Is(err, syscall.ECONNREFUSED) {
			return 0, err
		}
	}
}

// pkt returns packet i of the last recv; valid until the next recv.
func (r *batchReceiver) pkt(i int) []byte { return r.buf[:r.n] }

// peer returns packet i's source address, for addressing replies.
func (r *batchReceiver) peer(i int) peerAddr { return peerAddr{ap: r.from} }

// src returns packet i's source address as the comparable session key. A
// dual-stack socket reports IPv4 peers as IPv4-mapped; Unmap gives them
// the same key and name a v4 socket would.
func (r *batchReceiver) src(i int) netip.AddrPort {
	return netip.AddrPortFrom(r.from.Addr().Unmap(), r.from.Port())
}
