package phy

import (
	"errors"
	"fmt"
)

// MemHeaderBytes is the size of the opaque memory-message header carried in
// the /MS/ (or /MST/) control payload. Its content is defined by the edm
// package; the PHY treats it as 7 opaque bytes.
const MemHeaderBytes = ControlPayloadBytes

// MemMsg is a memory message at PHY granularity: a 7-byte header plus an
// arbitrary body. The wire encoding is
//
//	body empty:  /MST hdr/                                   (1 block)
//	otherwise:   /MS hdr/ /D/.../D/ /MT lastValid/           (2 + ceil(len/8))
//
// where the final /D/ block is zero-padded and /MT/'s first payload byte
// records how many of its 8 bytes are valid. Unlike a MAC frame, which must
// span at least 9 blocks, a memory message can be a single 66-bit block —
// this is the source of EDM's bandwidth advantage for small messages.
type MemMsg struct {
	Header [MemHeaderBytes]byte
	Body   []byte
}

// WireBlocks reports how many 66-bit blocks the message occupies on the wire.
func (m MemMsg) WireBlocks() int { return MemMsgWireBlocks(len(m.Body)) }

// MemMsgWireBlocks reports the wire size in blocks of a message with an
// n-byte body, without building it.
func MemMsgWireBlocks(n int) int {
	if n == 0 {
		return 1
	}
	return 2 + (n+BlockPayloadBytes-1)/BlockPayloadBytes
}

// Encode renders the message into its block sequence.
func (m MemMsg) Encode() []Block {
	if len(m.Body) == 0 {
		return []Block{ControlBlock(BTMemSingle, m.Header[:])}
	}
	blocks := make([]Block, 0, m.WireBlocks())
	blocks = append(blocks, ControlBlock(BTMemStart, m.Header[:]))
	body := m.Body
	for len(body) >= BlockPayloadBytes {
		blocks = append(blocks, DataBlock(body[:BlockPayloadBytes]))
		body = body[BlockPayloadBytes:]
	}
	lastValid := BlockPayloadBytes
	if len(body) > 0 {
		var pad [BlockPayloadBytes]byte
		copy(pad[:], body)
		blocks = append(blocks, DataBlock(pad[:]))
		lastValid = len(body)
	}
	blocks = append(blocks, ControlBlock(BTMemTerm, []byte{byte(lastValid)}))
	return blocks
}

// Demux errors.
var (
	ErrMemBadTerm    = errors.New("phy: /MT/ with invalid trailing count")
	ErrMemUnexpected = errors.New("phy: unexpected block inside memory message")
)

// RxEvent is what the demux produces for one input block.
type RxEvent struct {
	// Msg is non-nil when a complete memory message finished on this block.
	Msg *MemMsg
	// Notify holds the payload of an /N/ block, Grant of a /G/ block.
	Notify, Grant *[MemHeaderBytes]byte
	// FrameBlock is non-nil when the block belongs to the standard Ethernet
	// stream and should be forwarded to the frame decoder. Per the paper,
	// consumed memory blocks are replaced by idle blocks before the standard
	// decoder; callers that need that behaviour can substitute IdleBlock()
	// whenever FrameBlock is nil.
	FrameBlock *Block
}

// RxDemux is EDM's receive-side splitter (§3.2.1): it sits between the
// descrambler and the standard decoder, extracts /M*/, /N/ and /G/ blocks,
// and passes everything else through to the Ethernet stack. Data blocks are
// interpreted contextually: inside an /MS/../MT/ bracket they are memory
// data (/MD/); outside, they belong to the preempted Ethernet frame.
type RxDemux struct {
	inMsg bool
	hdr   [MemHeaderBytes]byte
	body  []byte
}

// Feed consumes one block.
func (d *RxDemux) Feed(b Block) (RxEvent, error) {
	if b.IsData() {
		if d.inMsg {
			d.body = append(d.body, b.Payload[:]...)
			return RxEvent{}, nil
		}
		return RxEvent{FrameBlock: &b}, nil
	}
	switch bt := b.Type(); bt {
	case BTMemStart:
		if d.inMsg {
			return RxEvent{}, fmt.Errorf("%w: /MS/ inside message", ErrMemUnexpected)
		}
		d.inMsg = true
		d.hdr = b.ControlPayload()
		d.body = d.body[:0]
		return RxEvent{}, nil
	case BTMemTerm:
		if !d.inMsg {
			return RxEvent{}, fmt.Errorf("%w: /MT/ outside message", ErrMemUnexpected)
		}
		p := b.ControlPayload()
		valid := int(p[0])
		if valid < 1 || valid > BlockPayloadBytes || len(d.body) == 0 {
			return RxEvent{}, ErrMemBadTerm
		}
		d.inMsg = false
		body := make([]byte, len(d.body)-(BlockPayloadBytes-valid))
		copy(body, d.body)
		return RxEvent{Msg: &MemMsg{Header: d.hdr, Body: body}}, nil
	case BTMemSingle:
		if d.inMsg {
			return RxEvent{}, fmt.Errorf("%w: /MST/ inside message", ErrMemUnexpected)
		}
		hdr := b.ControlPayload()
		return RxEvent{Msg: &MemMsg{Header: hdr}}, nil
	case BTNotify:
		p := b.ControlPayload()
		return RxEvent{Notify: &p}, nil
	case BTGrant:
		p := b.ControlPayload()
		return RxEvent{Grant: &p}, nil
	default:
		if d.inMsg {
			// A standard control block may not interrupt a memory message:
			// the TX mux only preempts Ethernet frames with memory blocks,
			// never the reverse.
			return RxEvent{}, fmt.Errorf("%w: %v", ErrMemUnexpected, b)
		}
		return RxEvent{FrameBlock: &b}, nil
	}
}
