package phy

import (
	"errors"
	"fmt"
)

// Standard preamble bytes carried in the /S/ block. On XGMII the start
// character replaces the first preamble byte, so seven remain (six 0x55
// plus the 0xd5 start-frame delimiter).
var preamble7 = []byte{0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5}

// FrameToBlocks encodes one MAC frame into its PCS block sequence:
// an /S/ block (carrying the trailing preamble), /D/ blocks with the frame
// body, and a /Tn/ block carrying the final 0..7 bytes. A 64 B minimum
// frame therefore occupies 10 blocks.
func FrameToBlocks(frame []byte) []Block {
	blocks := make([]Block, 0, len(frame)/BlockPayloadBytes+2)
	blocks = append(blocks, StartBlock(preamble7))
	i := 0
	for ; i+BlockPayloadBytes <= len(frame); i += BlockPayloadBytes {
		blocks = append(blocks, DataBlock(frame[i:i+BlockPayloadBytes]))
	}
	rest := frame[i:]
	blocks = append(blocks, ControlBlock(TermType(len(rest)), rest))
	return blocks
}

// Decode errors.
var (
	ErrUnexpected    = errors.New("phy: unexpected block in frame body")
	ErrStrayData     = errors.New("phy: data block outside a frame")
	ErrMemoryInFrame = errors.New("phy: memory block inside a frame body (demux it first)")
)

// FrameDecoder decodes MAC frames from a block stream: feed blocks one at a
// time (as a receiver would each cycle) and collect completed frames; idles
// between frames are skipped. It is the decoder that sits above EDM's RX
// demux, so it only ever sees standard blocks; memory blocks are an error
// here.
type FrameDecoder struct {
	inFrame bool
	buf     []byte
}

// Feed consumes one block. It returns a completed frame (done=true) when the
// terminate block arrives.
func (d *FrameDecoder) Feed(b Block) (frame []byte, done bool, err error) {
	if b.IsData() {
		if !d.inFrame {
			return nil, false, ErrStrayData
		}
		d.buf = append(d.buf, b.Payload[:]...)
		return nil, false, nil
	}
	switch bt := b.Type(); {
	case bt == BTIdle:
		return nil, false, nil
	case bt == BTStart:
		if d.inFrame {
			return nil, false, fmt.Errorf("%w: /S/ inside frame", ErrUnexpected)
		}
		d.inFrame = true
		d.buf = d.buf[:0]
		return nil, false, nil
	case IsEDMType(bt):
		return nil, false, ErrMemoryInFrame
	default:
		n, ok := TermBytes(bt)
		if !ok {
			return nil, false, fmt.Errorf("%w: %v", ErrUnexpected, b)
		}
		if !d.inFrame {
			return nil, false, fmt.Errorf("%w: /T/ outside frame", ErrUnexpected)
		}
		p := b.ControlPayload()
		d.buf = append(d.buf, p[:n]...)
		out := make([]byte, len(d.buf))
		copy(out, d.buf)
		d.inFrame = false
		return out, true, nil
	}
}

// InFrame reports whether the decoder is mid-frame (a /T/ has not yet been
// seen for the current /S/).
func (d *FrameDecoder) InFrame() bool { return d.inFrame }
