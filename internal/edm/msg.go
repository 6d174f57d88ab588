// Package edm implements the core of the paper: EDM's host and switch
// network stacks for remote memory access in the Ethernet PHY (§3.2), glued
// to the central PIM scheduler (internal/sched) into a complete block-level
// fabric (Fabric) with a client API of remote reads, writes and atomic
// read-modify-writes.
package edm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/memctl"
	"repro/internal/phy"
)

// Kind is the message type (§2.3).
type Kind uint8

const (
	KindRREQ Kind = iota + 1 // remote read request
	KindWREQ                 // remote write request
	KindRMW                  // atomic read-modify-write request
	KindRRES                 // read response
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRREQ:
		return "RREQ"
	case KindWREQ:
		return "WREQ"
	case KindRMW:
		return "RMWREQ"
	case KindRRES:
		return "RRES"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is one remote-memory message.
type Message struct {
	Kind Kind
	// Src and Dst are switch port numbers (the paper's 9-bit node ids).
	Src, Dst int
	// ID distinguishes concurrent messages between a pair (8 bits).
	ID uint8
	// Addr is the remote memory address (RREQ/WREQ/RMW).
	Addr uint64
	// Len is the number of bytes to read (RREQ) — the implicit demand for
	// the RRES — or the data length for WREQ/RRES.
	Len uint32
	// Op and Args describe the RMW operation.
	Op   memctl.RMWOp
	Args []uint64
	// Data is the write payload (WREQ) or the read result (RRES).
	Data []byte
}

// Wire format limits.
const (
	MaxPorts   = 512     // 9-bit port ids
	MaxMsgLen  = 1 << 16 // 16-bit size field
	maxRMWArgs = 4
)

// header flag bits.
const (
	flagCont uint8 = 1 << 0 // continuation chunk of a chunked message
)

// Wire format errors.
var (
	ErrMsgTooLarge = errors.New("edm: message exceeds 16-bit size field")
	ErrBadPort     = errors.New("edm: port out of 9-bit range")
	ErrBadWire     = errors.New("edm: malformed wire message")
)

// header is the 7-byte /MS//MST/ control payload:
//
//	bits  0..3  kind
//	bits  4..12 src port   (9 bits)
//	bits 13..21 dst port   (9 bits)
//	bits 22..29 message id (8 bits)
//	bits 30..45 size       (16 bits; body bytes for the whole message)
//	bits 46..53 opcode (RMW) / flags
//	bit  54     continuation flag
type header struct {
	kind Kind
	src  int
	dst  int
	id   uint8
	size uint32
	op   uint8
	cont bool
}

func (h header) pack() [phy.MemHeaderBytes]byte {
	var v uint64
	v |= uint64(h.kind) & 0xf
	v |= (uint64(h.src) & 0x1ff) << 4
	v |= (uint64(h.dst) & 0x1ff) << 13
	v |= uint64(h.id) << 22
	v |= (uint64(h.size) & 0xffff) << 30
	v |= uint64(h.op) << 46
	if h.cont {
		v |= 1 << 54
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	var out [phy.MemHeaderBytes]byte
	copy(out[:], buf[:phy.MemHeaderBytes])
	return out
}

func unpackHeader(p [phy.MemHeaderBytes]byte) header {
	var buf [8]byte
	copy(buf[:], p[:])
	v := binary.LittleEndian.Uint64(buf[:])
	return header{
		kind: Kind(v & 0xf),
		src:  int((v >> 4) & 0x1ff),
		dst:  int((v >> 13) & 0x1ff),
		id:   uint8(v >> 22),
		size: uint32((v >> 30) & 0xffff),
		op:   uint8((v >> 46) & 0xff),
		cont: v&(1<<54) != 0,
	}
}

// Body renders the message body that follows the header on the wire:
//
//	RREQ: addr(8)
//	WREQ: addr(8) + data
//	RMW:  addr(8) + op args (8 each)
//	RRES: data
func (m *Message) Body() ([]byte, error) {
	switch m.Kind {
	case KindRREQ:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], m.Addr)
		return b[:], nil
	case KindWREQ:
		b := make([]byte, 8+len(m.Data))
		binary.LittleEndian.PutUint64(b, m.Addr)
		copy(b[8:], m.Data)
		return b, nil
	case KindRMW:
		if len(m.Args) > maxRMWArgs {
			return nil, fmt.Errorf("%w: %d RMW args", ErrBadWire, len(m.Args))
		}
		b := make([]byte, 8+8*len(m.Args))
		binary.LittleEndian.PutUint64(b, m.Addr)
		for i, a := range m.Args {
			binary.LittleEndian.PutUint64(b[8+8*i:], a)
		}
		return b, nil
	case KindRRES:
		return m.Data, nil
	}
	return nil, fmt.Errorf("%w: kind %v", ErrBadWire, m.Kind)
}

func (m *Message) validate() error {
	if m.Src < 0 || m.Src >= MaxPorts || m.Dst < 0 || m.Dst >= MaxPorts {
		return fmt.Errorf("%w: src=%d dst=%d", ErrBadPort, m.Src, m.Dst)
	}
	return nil
}

// hdr builds the wire header for the message with the given body size.
func (m *Message) hdr(size int, cont bool) (header, error) {
	if size >= MaxMsgLen {
		return header{}, fmt.Errorf("%w: %d bytes", ErrMsgTooLarge, size)
	}
	return header{
		kind: m.Kind, src: m.Src, dst: m.Dst, id: m.ID,
		size: uint32(size), op: uint8(m.Op), cont: cont,
	}, nil
}

// MarshalChunk renders the chunk [offset, offset+n) of the message body as
// its own PHY memory message. Chunks after the first carry the continuation
// flag; the header's size field always holds the total body size so the
// receiver can size its reassembly buffer from the first chunk.
func (m *Message) MarshalChunk(body []byte, offset, n int) (phy.MemMsg, error) {
	if err := m.validate(); err != nil {
		return phy.MemMsg{}, err
	}
	if offset < 0 || n <= 0 || offset+n > len(body) {
		return phy.MemMsg{}, fmt.Errorf("%w: chunk [%d,%d) of %d", ErrBadWire, offset, offset+n, len(body))
	}
	h, err := m.hdr(len(body), offset > 0)
	if err != nil {
		return phy.MemMsg{}, err
	}
	return phy.MemMsg{Header: h.pack(), Body: body[offset : offset+n]}, nil
}

// parseBody fills the kind-specific fields from a complete body.
func (m *Message) parseBody(body []byte) error {
	switch m.Kind {
	case KindRREQ:
		if len(body) != 8 {
			return fmt.Errorf("%w: RREQ body %d bytes", ErrBadWire, len(body))
		}
		m.Addr = binary.LittleEndian.Uint64(body)
	case KindRMW:
		if len(body) < 8 || (len(body)-8)%8 != 0 {
			return fmt.Errorf("%w: RMW body %d bytes", ErrBadWire, len(body))
		}
		m.Addr = binary.LittleEndian.Uint64(body)
		nargs := (len(body) - 8) / 8
		if nargs > maxRMWArgs {
			return fmt.Errorf("%w: %d RMW args", ErrBadWire, nargs)
		}
		m.Args = make([]uint64, nargs)
		for i := range m.Args {
			m.Args[i] = binary.LittleEndian.Uint64(body[8+8*i:])
		}
	default:
		return fmt.Errorf("%w: kind %d", ErrBadWire, m.Kind)
	}
	return nil
}

// MarshalRREQ is a special case: the header's size field carries the read
// demand (bytes to read) rather than the 8-byte body size, because the
// switch extracts the RRES demand from it inline (§3.1.1 Notification).
func (m *Message) MarshalRREQ() (phy.MemMsg, error) {
	if m.Kind != KindRREQ && m.Kind != KindRMW {
		return phy.MemMsg{}, fmt.Errorf("%w: MarshalRREQ on %v", ErrBadWire, m.Kind)
	}
	if err := m.validate(); err != nil {
		return phy.MemMsg{}, err
	}
	body, err := m.Body()
	if err != nil {
		return phy.MemMsg{}, err
	}
	demand := int(m.Len)
	if m.Kind == KindRMW {
		demand = 8 // RRES carries the 64-bit RMW result; inferred from opcode
	}
	h, err := m.hdr(demand, false)
	if err != nil {
		return phy.MemMsg{}, err
	}
	return phy.MemMsg{Header: h.pack(), Body: body}, nil
}

// UnmarshalRREQ decodes an RREQ/RMWREQ whose size field is the read demand.
func UnmarshalRREQ(w phy.MemMsg) (m *Message, demand int, err error) {
	h := unpackHeader(w.Header)
	if h.kind != KindRREQ && h.kind != KindRMW {
		return nil, 0, fmt.Errorf("%w: %v is not a request", ErrBadWire, h.kind)
	}
	m = &Message{Kind: h.kind, Src: h.src, Dst: h.dst, ID: h.id, Op: memctl.RMWOp(h.op)}
	if err := m.parseBody(w.Body); err != nil {
		return nil, 0, err
	}
	m.Len = h.size
	return m, int(h.size), nil
}

// PeekHeader exposes the routing fields the switch needs without full
// decoding — the one-cycle block classification it performs (§3.2.2).
func PeekHeader(w phy.MemMsg) (kind Kind, src, dst int, id uint8, size int, cont bool) {
	h := unpackHeader(w.Header)
	return h.kind, h.src, h.dst, h.id, int(h.size), h.cont
}

// Control messages: demand notifications (/N/) and grants (/G/), each a
// single 66-bit block with a 7-byte payload (§3.1.4: destination 9 bits,
// message id 8 bits, size 16 bits).

// Notification is the /N/ payload announcing a WREQ demand.
type Notification struct {
	Src, Dst int
	ID       uint8
	Size     uint32
}

// PackNotify renders the /N/ block.
func (n Notification) PackNotify() (phy.Block, error) {
	if n.Src < 0 || n.Src >= MaxPorts || n.Dst < 0 || n.Dst >= MaxPorts {
		return phy.Block{}, fmt.Errorf("%w: %d->%d", ErrBadPort, n.Src, n.Dst)
	}
	if n.Size >= MaxMsgLen {
		return phy.Block{}, fmt.Errorf("%w: %d", ErrMsgTooLarge, n.Size)
	}
	h := header{kind: KindWREQ, src: n.Src, dst: n.Dst, id: n.ID, size: n.Size}
	p := h.pack()
	return phy.ControlBlock(phy.BTNotify, p[:]), nil
}

// UnpackNotify decodes an /N/ payload.
func UnpackNotify(p [phy.MemHeaderBytes]byte) Notification {
	h := unpackHeader(p)
	return Notification{Src: h.src, Dst: h.dst, ID: h.id, Size: h.size}
}

// GrantMsg is the /G/ payload: permission for the receiving host to send a
// chunk of the identified message.
type GrantMsg struct {
	// Dst is the data message's destination (with the message id this keys
	// the sender's state table).
	Dst   int
	ID    uint8
	Chunk uint32
}

// PackGrant renders the /G/ block.
func (g GrantMsg) PackGrant() (phy.Block, error) {
	if g.Dst < 0 || g.Dst >= MaxPorts {
		return phy.Block{}, fmt.Errorf("%w: %d", ErrBadPort, g.Dst)
	}
	h := header{kind: KindWREQ, dst: g.Dst, id: g.ID, size: g.Chunk}
	p := h.pack()
	return phy.ControlBlock(phy.BTGrant, p[:]), nil
}

// UnpackGrant decodes a /G/ payload.
func UnpackGrant(p [phy.MemHeaderBytes]byte) GrantMsg {
	h := unpackHeader(p)
	return GrantMsg{Dst: h.dst, ID: h.id, Chunk: h.size}
}
