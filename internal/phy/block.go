// Package phy models the Physical Coding Sublayer (PCS) of 10/25/40/100 GbE.
//
// The PCS transfers data in 66-bit blocks: a 2-bit sync header followed by a
// 64-bit payload. EDM's entire remote-memory protocol lives at this
// granularity, below the MAC. The package provides:
//
//   - the standard block vocabulary (/S/, /D/, /T0/../T7/, /E/),
//   - EDM's extended vocabulary (/MS/, /MD/, /MT/, /MST/, /N/, /G/),
//   - a frame encoder/decoder (MAC frame bytes <-> block sequence, with
//     inter-frame-gap idle insertion), and
//   - EDM's TX mux and RX demux, which interleave memory blocks with frame
//     blocks on one line.
//
// The line-side scrambler is not modeled: it is transparent to everything
// above it.
//
// One block serializes in one PCS clock cycle: 2.56 ns at 25 GbE.
package phy

import "fmt"

// SyncHeader is the 2-bit prefix that distinguishes data from control blocks.
type SyncHeader uint8

const (
	// SyncData (binary 10) prefixes a block whose 64-bit payload is all data.
	SyncData SyncHeader = 0b10
	// SyncControl (binary 01) prefixes a block whose payload starts with an
	// 8-bit block-type field followed by 56 bits of type-specific content.
	SyncControl SyncHeader = 0b01
)

// BlockType identifies a control block. Standard values come from IEEE
// 802.3 clause 49; EDM values are chosen from the unused code space as the
// paper prescribes (§3.2: "we assign them unique unused block-type values").
type BlockType uint8

const (
	// Standard Ethernet control block types.
	BTIdle  BlockType = 0x1e // /E/: all-idle block, forms the inter-frame gap
	BTStart BlockType = 0x78 // /S/: start of MAC frame
	BTTerm0 BlockType = 0x87 // /T0/: terminate with 0 trailing data bytes
	BTTerm1 BlockType = 0x99
	BTTerm2 BlockType = 0xaa
	BTTerm3 BlockType = 0xb4
	BTTerm4 BlockType = 0xcc
	BTTerm5 BlockType = 0xd2
	BTTerm6 BlockType = 0xe1
	BTTerm7 BlockType = 0xff

	// EDM control block types (unused code points).
	BTMemStart  BlockType = 0x3c // /MS/: start of a memory message
	BTMemTerm   BlockType = 0x69 // /MT/: end of a memory message
	BTMemSingle BlockType = 0x5a // /MST/: complete single-block memory message
	BTNotify    BlockType = 0xc3 // /N/: demand notification to the scheduler
	BTGrant     BlockType = 0x96 // /G/: grant from the scheduler
)

var termTypes = [8]BlockType{BTTerm0, BTTerm1, BTTerm2, BTTerm3, BTTerm4, BTTerm5, BTTerm6, BTTerm7}

// TermType returns the terminate block type carrying n trailing data bytes
// (0 <= n <= 7).
func TermType(n int) BlockType {
	if n < 0 || n > 7 {
		panic(fmt.Sprintf("phy: invalid terminate byte count %d", n))
	}
	return termTypes[n]
}

// TermBytes reports how many trailing data bytes a terminate type carries,
// and whether bt is a terminate type at all.
func TermBytes(bt BlockType) (int, bool) {
	for i, t := range termTypes {
		if t == bt {
			return i, true
		}
	}
	return 0, false
}

// IsEDMType reports whether bt belongs to EDM's extended vocabulary.
func IsEDMType(bt BlockType) bool {
	switch bt {
	case BTMemStart, BTMemTerm, BTMemSingle, BTNotify, BTGrant:
		return true
	}
	return false
}

// IsStandardType reports whether bt is a standard Ethernet control type.
func IsStandardType(bt BlockType) bool {
	if bt == BTIdle || bt == BTStart {
		return true
	}
	_, ok := TermBytes(bt)
	return ok
}

// Block is one 66-bit PCS block.
type Block struct {
	Sync    SyncHeader
	Payload [8]byte // control blocks: Payload[0] is the BlockType
}

// Type returns the control block type. Calling Type on a data block panics;
// use IsControl first.
func (b Block) Type() BlockType {
	if b.Sync != SyncControl {
		panic("phy: Type called on data block")
	}
	return BlockType(b.Payload[0])
}

// IsControl reports whether b is a control block.
func (b Block) IsControl() bool { return b.Sync == SyncControl }

// IsData reports whether b is a data block.
func (b Block) IsData() bool { return b.Sync == SyncData }

// IsIdle reports whether b is an /E/ idle block.
func (b Block) IsIdle() bool { return b.IsControl() && b.Type() == BTIdle }

// IsMemory reports whether b is one of EDM's control blocks.
func (b Block) IsMemory() bool { return b.IsControl() && IsEDMType(b.Type()) }

// ControlPayload returns the 7 type-specific bytes of a control block.
func (b Block) ControlPayload() [7]byte {
	if !b.IsControl() {
		panic("phy: ControlPayload on data block")
	}
	var p [7]byte
	copy(p[:], b.Payload[1:])
	return p
}

// String renders a compact human-readable form, useful in tests and traces.
func (b Block) String() string {
	if b.IsData() {
		return fmt.Sprintf("/D %x/", b.Payload)
	}
	switch bt := b.Type(); bt {
	case BTIdle:
		return "/E/"
	case BTStart:
		return "/S/"
	case BTMemStart:
		return "/MS/"
	case BTMemTerm:
		return "/MT/"
	case BTMemSingle:
		return "/MST/"
	case BTNotify:
		return "/N/"
	case BTGrant:
		return "/G/"
	default:
		if n, ok := TermBytes(bt); ok {
			return fmt.Sprintf("/T%d/", n)
		}
		return fmt.Sprintf("/C%#02x/", uint8(bt))
	}
}

// DataBlock builds a /D/ block from exactly 8 bytes.
func DataBlock(p []byte) Block {
	if len(p) != 8 {
		panic(fmt.Sprintf("phy: data block needs 8 bytes, got %d", len(p)))
	}
	var b Block
	b.Sync = SyncData
	copy(b.Payload[:], p)
	return b
}

// ControlBlock builds a control block of type bt with up to 7 payload bytes.
func ControlBlock(bt BlockType, payload []byte) Block {
	if len(payload) > 7 {
		panic(fmt.Sprintf("phy: control payload too long: %d", len(payload)))
	}
	var b Block
	b.Sync = SyncControl
	b.Payload[0] = byte(bt)
	copy(b.Payload[1:], payload)
	return b
}

// IdleBlock returns a fresh /E/ block (payload all zero, the standard idle
// pattern).
func IdleBlock() Block { return ControlBlock(BTIdle, nil) }

// StartBlock returns an /S/ block carrying the first 7 bytes of the frame.
func StartBlock(first7 []byte) Block { return ControlBlock(BTStart, first7) }

// BlockBits is the size of one block on the wire.
const BlockBits = 66

// BlockWireBytes is one block's wire size rounded up to whole bytes: the
// link cost of a lone /N/ or /G/ control block.
const BlockWireBytes = (BlockBits + 7) / 8

// BlockPayloadBytes is the data capacity of a /D/ block.
const BlockPayloadBytes = 8

// ControlPayloadBytes is the data capacity of a control block after the
// type field.
const ControlPayloadBytes = 7
