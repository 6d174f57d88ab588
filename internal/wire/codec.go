// Package wire carries EDM's memory-message vocabulary over real datagrams.
//
// The simulator speaks the paper's message types (RREQ/WREQ/RMWREQ and their
// responses) at 66-bit-block granularity inside the Ethernet PHY; this
// package re-frames the same vocabulary as a compact binary datagram format
// plus a reliable request/response layer, so a live memory-node daemon
// (cmd/edmd) and a load generator (cmd/edmload) can exchange the messages
// the simulator only models. Three pieces:
//
//   - the codec (this file): one message per frame, fixed little-endian
//     header + RMW args + payload + CRC-32, with strict decode validation so
//     corrupted frames are detected and dropped like a failed PCS decode
//     in the paper's fabric (§3.3); the UDP transport may bundle frames
//     (see bundleMarker in udp.go);
//   - Conn (conn.go): client-side reliability — per-message retransmission
//     with configurable timeout/retry, response matching by message ID;
//   - Responder (conn.go): server-side duplicate suppression indexed by the
//     message ID's call slot — one retained response per slot, replayed to
//     a retransmission and dropped for a stale copy — so retransmitted
//     RMWREQs stay exactly-once.
//
// Transports: real UDP (udp.go) and a deterministic in-process loopback with
// a virtual clock and fault hooks (loopback.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Kind is the datagram message type: the paper's §2.3 vocabulary plus the
// session handshake/teardown pairs of the reliable layer.
type Kind uint8

const (
	// KindHello opens a session; the server answers KindHelloAck with its
	// slab geometry (see rmem.Geometry).
	KindHello Kind = iota + 1
	KindHelloAck
	// KindBye closes a session; the server answers KindByeAck and forgets
	// the client's call slots and the responses they retain.
	KindBye
	KindByeAck
	// KindRREQ reads Count bytes at Addr; answered by KindRRESP carrying
	// the data.
	KindRREQ
	KindRRESP
	// KindWREQ writes Data at Addr; answered by KindWACK. Unlike the
	// paper's one-sided writes, the live protocol acks writes explicitly —
	// the ack doubles as the retransmission signal.
	KindWREQ
	KindWACK
	// KindRMWREQ performs an atomic read-modify-write (memctl.RMWOp in Op,
	// operands in Args); answered by KindRMWRESP with the 64-bit result in
	// Data.
	KindRMWREQ
	KindRMWRESP

	kindMax = KindRMWRESP
)

// NumKinds sizes per-kind arrays (index by Kind; slot 0 is unused).
const NumKinds = int(kindMax) + 1

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "HELLO"
	case KindHelloAck:
		return "HELLO-ACK"
	case KindBye:
		return "BYE"
	case KindByeAck:
		return "BYE-ACK"
	case KindRREQ:
		return "RREQ"
	case KindRRESP:
		return "RRESP"
	case KindWREQ:
		return "WREQ"
	case KindWACK:
		return "WACK"
	case KindRMWREQ:
		return "RMWREQ"
	case KindRMWRESP:
		return "RMWRESP"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsRequest reports whether k travels client->server and expects a response.
func (k Kind) IsRequest() bool {
	switch k {
	case KindHello, KindBye, KindRREQ, KindWREQ, KindRMWREQ:
		return true
	}
	return false
}

// Response returns the response kind a request expects.
func (k Kind) Response() Kind {
	switch k {
	case KindHello:
		return KindHelloAck
	case KindBye:
		return KindByeAck
	case KindRREQ:
		return KindRRESP
	case KindWREQ:
		return KindWACK
	case KindRMWREQ:
		return KindRMWRESP
	}
	return 0
}

// Status is the response outcome code.
type Status uint8

const (
	StatusOK Status = iota
	// StatusRange rejects an access outside the slab.
	StatusRange
	// StatusOp rejects a bad RMW opcode or argument count.
	StatusOp
	// StatusProto rejects a malformed or out-of-session request.
	StatusProto

	statusMax = StatusProto
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRange:
		return "out-of-range"
	case StatusOp:
		return "bad-op"
	case StatusProto:
		return "protocol-error"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Err converts a non-OK status into an error (nil for StatusOK).
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrRemote, s)
}

// Wire format limits.
const (
	// Version is the protocol version carried in every datagram.
	Version = 1
	// MaxArgs bounds the RMW operand count (memctl's widest op takes 2).
	MaxArgs = 4
	// MaxData bounds the payload so any message fits one unfragmented-ish
	// UDP datagram (65507 payload max; leave generous headroom).
	MaxData = 60000
	// headerBytes is the fixed prefix: version(1) kind(1) status(1) op(1)
	// nargs(1) id(4) addr(8) count(4).
	headerBytes = 21
	// crcBytes is the trailing CRC-32 (Castagnoli).
	crcBytes = 4
	// MaxDatagram is the largest encoded message.
	MaxDatagram = headerBytes + 8*MaxArgs + MaxData + crcBytes
)

// Codec errors.
var (
	ErrTooLarge = errors.New("wire: message exceeds datagram bounds")
	ErrShort    = errors.New("wire: datagram too short")
	ErrVersion  = errors.New("wire: protocol version mismatch")
	ErrBadKind  = errors.New("wire: unknown message kind")
	ErrBadMsg   = errors.New("wire: malformed message")
	ErrChecksum = errors.New("wire: checksum mismatch")
	ErrRemote   = errors.New("wire: request failed at server")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Msg is one wire message. Field use by kind:
//
//	RREQ:    ID, Addr, Count (bytes demanded)
//	RRESP:   ID, Status, Data (the bytes; Count mirrors len(Data))
//	WREQ:    ID, Addr, Data (payload; Count mirrors len(Data))
//	WACK:    ID, Status
//	RMWREQ:  ID, Addr, Op, Args
//	RMWRESP: ID, Status, Data (8-byte result)
//	HELLO:   ID
//	HELLO-ACK: ID, Status, Data (server geometry, see rmem)
//	BYE / BYE-ACK: ID
//
// Msgs are pooled: a response handed to a callback (and request records
// recycled by the client) is valid only for the duration of that callback.
// A decoded Msg's Data is not a copy: it views the datagram it was decoded
// from (see DecodeInto), which the transport keeps alive for exactly that
// long. Retaining a Msg — or a view of its Data — requires an explicit copy
// (Clone). The pooledescape analyzer enforces this module-wide.
//
//edmlint:owned callback
type Msg struct {
	Kind   Kind
	Status Status
	// Op is the RMW opcode (a memctl.RMWOp value).
	Op uint8
	// ID matches a response to its request. The reliable layer assigns
	// sequential IDs per connection.
	ID uint32
	// Addr is the slab byte address.
	Addr uint64
	// Count is the byte count of the access: the read demand for RREQ, the
	// payload length otherwise (kept explicit on the wire so demand is
	// visible without the payload, as in the paper's notification headers).
	Count uint32
	// Args are the RMW operands.
	Args []uint64
	// Data is the payload.
	Data []byte
}

// EncodedSize reports the datagram size of m without building it.
func (m *Msg) EncodedSize() int {
	return headerBytes + 8*len(m.Args) + len(m.Data) + crcBytes
}

// Reset clears m for reuse, retaining the Args capacity. Data is dropped,
// not truncated: it may view a datagram (DecodeInto) or a caller's buffer,
// and a recycled Msg must hold neither.
func (m *Msg) Reset() {
	m.Kind, m.Status, m.Op = 0, 0, 0
	m.ID, m.Addr, m.Count = 0, 0, 0
	m.Args = m.Args[:0]
	m.Data = nil
}

// Clone returns a deep copy of m: the escape hatch for callbacks that need
// to retain a connection-owned response past the callback's return.
func (m *Msg) Clone() *Msg {
	n := &Msg{Kind: m.Kind, Status: m.Status, Op: m.Op,
		ID: m.ID, Addr: m.Addr, Count: m.Count}
	if len(m.Args) > 0 {
		n.Args = append([]uint64(nil), m.Args...)
	}
	if len(m.Data) > 0 {
		n.Data = append([]byte(nil), m.Data...)
	}
	return n
}

// growBytes extends b by n bytes, reallocating only when capacity lacks.
func growBytes(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	want := len(b) + n
	c := 2 * cap(b)
	if c < want {
		c = want
	}
	nb := make([]byte, want, c)
	copy(nb, b)
	return nb
}

// AppendEncode appends m's encoding to dst and returns the extended slice.
// With a recycled dst (sliced to length 0) the steady state allocates
// nothing; Conn and Responder keep one such buffer per call/cache record.
// m.Data may alias dst's spare capacity past the fixed header of the new
// encoding (the Responder hands handlers a window that starts there): a
// payload already at its offset is not copied again, one that overlaps it is
// moved correctly.
//
//edmlint:hotpath the allocation-free encode used by the pooled hot path
func (m *Msg) AppendEncode(dst []byte) ([]byte, error) {
	if m.Kind == 0 || m.Kind > kindMax {
		return dst, fmt.Errorf("%w: %d", ErrBadKind, uint8(m.Kind))
	}
	if len(m.Args) > MaxArgs {
		return dst, fmt.Errorf("%w: %d RMW args", ErrTooLarge, len(m.Args))
	}
	if len(m.Data) > MaxData {
		return dst, fmt.Errorf("%w: %d payload bytes", ErrTooLarge, len(m.Data))
	}
	start := len(dst)
	dst = growBytes(dst, m.EncodedSize())
	b := dst[start:]
	b[0] = Version
	b[1] = byte(m.Kind)
	b[2] = byte(m.Status)
	b[3] = m.Op
	b[4] = byte(len(m.Args))
	binary.LittleEndian.PutUint32(b[5:], m.ID)
	binary.LittleEndian.PutUint64(b[9:], m.Addr)
	binary.LittleEndian.PutUint32(b[17:], m.Count)
	// The payload moves before the args are written: aliased, it may start
	// where they go.
	off := headerBytes + 8*len(m.Args)
	if len(m.Data) > 0 && &m.Data[0] != &b[off] {
		copy(b[off:], m.Data)
	}
	for i, a := range m.Args {
		binary.LittleEndian.PutUint64(b[headerBytes+8*i:], a)
	}
	off += len(m.Data)
	binary.LittleEndian.PutUint32(b[off:], crc32.Checksum(b[:off], castagnoli))
	return dst, nil
}

// DecodeInto parses one datagram into m, reusing m's Args capacity. It
// validates the version, kind, status, arg count, bounds and trailing
// checksum; any corruption that flips a bit anywhere in the datagram is
// caught by the CRC, mirroring the fabric's corrupted-block detection
// (§3.3).
//
// The payload is not copied: m.Data views b (nil when the payload is empty,
// capacity clipped to its length so an append cannot reach the CRC), so m is
// valid only while the caller keeps b alive and unmodified. Every Deliver
// runs to completion on a buffer its transport holds for the call (a UDP
// receive slot; on the loopback the sender's buffer, pinned by call.sending
// or respEntry.waiters), which is exactly the lifetime the pooled-Msg
// contract already allows. On error m is left in an unspecified state and
// must not be read.
//
//edmlint:hotpath the allocation-free decode used by the pooled hot path
func DecodeInto(m *Msg, b []byte) error {
	if len(b) < headerBytes+crcBytes {
		return fmt.Errorf("%w: %d bytes", ErrShort, len(b))
	}
	if len(b) > MaxDatagram {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(b))
	}
	body, sum := b[:len(b)-crcBytes], binary.LittleEndian.Uint32(b[len(b)-crcBytes:])
	if crc32.Checksum(body, castagnoli) != sum {
		return ErrChecksum
	}
	if b[0] != Version {
		return fmt.Errorf("%w: got %d want %d", ErrVersion, b[0], Version)
	}
	m.Kind = Kind(b[1])
	m.Status = Status(b[2])
	m.Op = b[3]
	m.ID = binary.LittleEndian.Uint32(b[5:])
	m.Addr = binary.LittleEndian.Uint64(b[9:])
	m.Count = binary.LittleEndian.Uint32(b[17:])
	m.Args = m.Args[:0]
	m.Data = nil
	if m.Kind == 0 || m.Kind > kindMax {
		return fmt.Errorf("%w: %d", ErrBadKind, b[1])
	}
	if m.Status > statusMax {
		return fmt.Errorf("%w: status %d", ErrBadMsg, b[2])
	}
	nargs := int(b[4])
	if nargs > MaxArgs {
		return fmt.Errorf("%w: %d RMW args", ErrBadMsg, nargs)
	}
	if len(body) < headerBytes+8*nargs {
		return fmt.Errorf("%w: %d args do not fit %d bytes", ErrBadMsg, nargs, len(body))
	}
	for i := 0; i < nargs; i++ {
		m.Args = append(m.Args, binary.LittleEndian.Uint64(body[headerBytes+8*i:]))
	}
	payload := body[headerBytes+8*nargs:]
	if len(payload) > MaxData {
		return fmt.Errorf("%w: %d payload bytes", ErrTooLarge, len(payload))
	}
	if len(payload) > 0 {
		m.Data = payload[:len(payload):len(payload)]
	}
	return nil
}
