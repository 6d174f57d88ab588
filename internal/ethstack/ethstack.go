// Package ethstack implements the conventional MAC-layer remote-memory
// fabric that EDM is measured against: memory messages carried in standard
// Ethernet frames through a store-and-forward layer-2 switch. It is the
// "raw Ethernet (standard Ethernet MAC + PHY only)" baseline of §4.2 built
// as a running system rather than a component-latency sum, so Table 1's
// baseline rows can be *measured* and the limitations of §2.4 (minimum
// frame size, IFG, no preemption, L2 pipeline, switch queueing) arise
// mechanically.
package ethstack

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/edm"
	"repro/internal/mac"
	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Frame payload opcodes.
const (
	opRead  uint8 = 1
	opWrite uint8 = 2
	opResp  uint8 = 3
)

// payload header: op(1) id(1) addr(8) len(4).
const hdrBytes = 14

// Stack errors.
var (
	ErrTimeout = errors.New("ethstack: read timed out")
	ErrBadWire = errors.New("ethstack: malformed payload")
)

// ReadCallback delivers a read result.
type ReadCallback func(data []byte, err error)

// WriteCallback fires when the write is applied at the remote memory.
type WriteCallback func(err error)

// Network is the frame-level cluster: hosts, their links, and one layer-2
// switch with per-egress output queues. It runs on the 25 GbE testbed of
// Table 1: links at edm.LinkBandwidth and edm.LinkLatency, and transport's
// MAC, PCS and layer-2 forwarding latencies.
type Network struct {
	Engine *sim.Engine
	hosts  []*Host
	// egress[i] serializes frames leaving the switch toward host i.
	egress []*serializer
	// egressQueueMax tracks the deepest egress backlog in bytes — the
	// queueing EDM's scheduler exists to eliminate.
	egressQueueMax int64
}

// serializer is a FIFO link: frames occupy it for their wire time, then
// arrive after the fixed latency.
type serializer struct {
	eng       *sim.Engine
	bw        sim.Gbps
	lat       sim.Time
	busyUntil sim.Time
}

func (s *serializer) send(wire int, deliver func()) (queued int64) {
	now := s.eng.Now()
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	backlog := int64(0)
	if s.busyUntil > now {
		backlog = int64(s.busyUntil-now) * int64(s.bw) / 8000
	}
	s.busyUntil = start + sim.TransmissionTime(wire, s.bw)
	s.eng.At(s.busyUntil+s.lat, deliver)
	return backlog
}

// New builds a network of the given number of ports.
func New(ports int) *Network {
	if ports < 2 {
		panic("ethstack: need at least 2 ports")
	}
	n := &Network{Engine: sim.NewEngine()}
	n.hosts = make([]*Host, ports)
	n.egress = make([]*serializer, ports)
	for i := range n.hosts {
		n.hosts[i] = &Host{
			net: n, port: i,
			uplink:   n.link(),
			readTab:  make(map[uint8]*pendingRead),
			writeTab: make(map[uint8]WriteCallback),
		}
		n.egress[i] = n.link()
	}
	return n
}

// link returns an idle one-way testbed link.
func (n *Network) link() *serializer {
	return &serializer{eng: n.Engine, bw: edm.LinkBandwidth, lat: edm.LinkLatency}
}

// Host returns the host at port i.
func (n *Network) Host(i int) *Host { return n.hosts[i] }

// MaxEgressQueue reports the deepest switch egress backlog seen, in bytes.
func (n *Network) MaxEgressQueue() int64 { return n.egressQueueMax }

// Run drains the engine.
func (n *Network) Run() { n.Engine.Run() }

// forward is the switch: ingress MAC+PCS, the L2 pipeline, then the egress
// queue toward the destination (store-and-forward: the frame was fully
// received before this is called).
func (n *Network) forward(dstPort int, wire []byte) {
	n.Engine.After(transport.MACLatency+transport.PCSLatency+transport.L2ForwardingLatency, func() {
		q := n.egress[dstPort].send(len(wire)+mac.PreambleBytes+mac.IFGBytes, func() {
			n.hosts[dstPort].receive(wire)
		})
		if q > n.egressQueueMax {
			n.egressQueueMax = q
		}
	})
}

type pendingRead struct {
	cb   ReadCallback
	done bool
}

// Host is a frame-level endpoint: it encapsulates memory operations in
// Ethernet frames (paying minimum-frame padding and IFG) and, when a
// memctl.Controller is attached, serves remote requests.
type Host struct {
	net    *Network
	port   int
	uplink *serializer
	mem    *memctl.Controller

	nextID   uint8
	readTab  map[uint8]*pendingRead
	writeTab map[uint8]WriteCallback
	timeouts uint64
}

// AttachMemory makes the host a memory node.
func (h *Host) AttachMemory(ctl *memctl.Controller) { h.mem = ctl }

// Memory returns the attached controller.
func (h *Host) Memory() *memctl.Controller { return h.mem }

// Timeouts reports expired reads.
func (h *Host) Timeouts() uint64 { return h.timeouts }

func (h *Host) payload(op uint8, id uint8, addr uint64, length uint32, data []byte) []byte {
	p := make([]byte, hdrBytes+len(data))
	p[0] = op
	p[1] = id
	binary.LittleEndian.PutUint64(p[2:], addr)
	binary.LittleEndian.PutUint32(p[10:], length)
	copy(p[hdrBytes:], data)
	return p
}

// send frames the payload and transmits it: MAC+PCS latency, then the
// uplink serializes preamble+frame+IFG.
func (h *Host) send(dst int, payload []byte) error {
	f := &mac.Frame{
		Dst: mac.NodeAddr(dst), Src: mac.NodeAddr(h.port),
		EtherType: mac.EtherTypeRemoteMem, Payload: payload,
	}
	wire, err := f.Marshal()
	if err != nil {
		return err
	}
	h.net.Engine.After(transport.MACLatency+transport.PCSLatency, func() {
		h.uplink.send(len(wire)+mac.PreambleBytes+mac.IFGBytes, func() {
			h.net.forward(dst, wire)
		})
	})
	return nil
}

// Read issues a remote read over raw Ethernet.
func (h *Host) Read(dst int, addr uint64, length int, cb ReadCallback) error {
	id := h.nextID
	h.nextID++
	pr := &pendingRead{cb: cb}
	h.readTab[id] = pr
	h.net.Engine.After(edm.ReadTimeout, func() {
		if pr.done {
			return
		}
		pr.done = true
		delete(h.readTab, id)
		h.timeouts++
		if cb != nil {
			cb(nil, ErrTimeout)
		}
	})
	return h.send(dst, h.payload(opRead, id, addr, uint32(length), nil))
}

// Write issues a remote write; cb fires at remote apply (measured through
// simulator state — the wire protocol itself has no acknowledgement,
// exactly like the paper's one-sided raw-Ethernet writes).
func (h *Host) Write(dst int, addr uint64, data []byte, cb WriteCallback) error {
	id := h.nextID
	h.nextID++
	if cb != nil {
		h.writeTab[id] = cb
	}
	return h.send(dst, h.payload(opWrite, id, addr, uint32(len(data)), data))
}

// receive terminates a frame: MAC+PCS on the way up, then the operation.
func (h *Host) receive(wire []byte) {
	h.net.Engine.After(transport.MACLatency+transport.PCSLatency, func() {
		f, err := mac.Unmarshal(wire)
		if err != nil {
			return // corrupted frame: dropped, requester times out
		}
		if len(f.Payload) < hdrBytes {
			return
		}
		op, id := f.Payload[0], f.Payload[1]
		addr := binary.LittleEndian.Uint64(f.Payload[2:])
		length := binary.LittleEndian.Uint32(f.Payload[10:])
		src := int(binary.BigEndian.Uint32(f.Src[2:]))
		switch op {
		case opRead:
			if h.mem == nil {
				return
			}
			data, lat, err := h.mem.Read(addr, int(length))
			if err != nil {
				return
			}
			h.net.Engine.After(lat, func() {
				_ = h.send(src, h.payload(opResp, id, addr, length, data))
			})
		case opWrite:
			if h.mem == nil {
				return
			}
			data := f.Payload[hdrBytes:]
			if int(length) <= len(data) {
				data = data[:length]
			}
			lat, err := h.mem.Write(addr, data)
			if err != nil {
				return
			}
			h.net.Engine.After(lat, func() { h.net.hosts[src].writeApplied(id) })
		case opResp:
			pr, ok := h.readTab[id]
			if !ok || pr.done {
				return
			}
			pr.done = true
			delete(h.readTab, id)
			if pr.cb != nil {
				data := f.Payload[hdrBytes:]
				if int(length) <= len(data) {
					data = data[:length]
				}
				pr.cb(data, nil)
			}
		}
	})
}

func (h *Host) writeApplied(id uint8) {
	if cb, ok := h.writeTab[id]; ok {
		delete(h.writeTab, id)
		cb(nil)
	}
}

// ReadSync issues a read and steps the engine to completion, returning the
// elapsed fabric latency.
func (n *Network) ReadSync(from, memNode int, addr uint64, length int) ([]byte, sim.Time, error) {
	start := n.Engine.Now()
	var out []byte
	var rerr error
	done := false
	if err := n.hosts[from].Read(memNode, addr, length, func(d []byte, err error) {
		out, rerr, done = d, err, true
	}); err != nil {
		return nil, 0, err
	}
	for !done && n.Engine.Step() {
	}
	if !done {
		return nil, 0, fmt.Errorf("ethstack: read never completed")
	}
	return out, n.Engine.Now() - start, rerr
}

// WriteSync issues a write and steps the engine until it is applied.
func (n *Network) WriteSync(from, memNode int, addr uint64, data []byte) (sim.Time, error) {
	start := n.Engine.Now()
	var werr error
	done := false
	if err := n.hosts[from].Write(memNode, addr, data, func(err error) {
		werr, done = err, true
	}); err != nil {
		return 0, err
	}
	for !done && n.Engine.Step() {
	}
	if !done {
		return 0, fmt.Errorf("ethstack: write never completed")
	}
	return n.Engine.Now() - start, werr
}
