// Package mac implements Ethernet Media Access Control framing.
//
// It exists for two reasons. First, the paper's baselines (raw Ethernet,
// RoCEv2, TCP/IP) all run on top of the MAC, so reproducing their bandwidth
// and latency behaviour requires real MAC semantics: 64 B minimum frame,
// 12 B inter-frame gap, 8 B preamble, CRC-32 FCS, and no intra-frame
// preemption. Second, EDM runs in parallel with the standard MAC pipeline,
// and the interference experiments need genuine MAC frames to preempt.
package mac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Ethernet frame geometry (IEEE 802.3).
const (
	AddrBytes     = 6
	HeaderBytes   = 2*AddrBytes + 2 // dst + src + EtherType
	FCSBytes      = 4
	MinFrameBytes = 64   // including FCS; enforced by padding
	MTUBytes      = 1500 // maximum payload
	MaxFrameBytes = HeaderBytes + MTUBytes + FCSBytes
	PreambleBytes = 8  // preamble + SFD, sent before every frame
	IFGBytes      = 12 // minimum inter-frame gap (96 bit times)
	// MinPayloadBytes is the smallest payload that avoids padding.
	MinPayloadBytes = MinFrameBytes - HeaderBytes - FCSBytes // 46
)

// EtherType values used in this repo.
const (
	EtherTypeIPv4 uint16 = 0x0800
	// EtherTypeRemoteMem marks frames carrying remote-memory messages for
	// the MAC-layer baselines (raw Ethernet / RoCE-like encapsulation).
	EtherTypeRemoteMem uint16 = 0x88b5 // IEEE "local experimental" value
)

// Addr is a 48-bit MAC address.
type Addr [AddrBytes]byte

// String renders the conventional colon-separated form.
func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// NodeAddr derives a deterministic locally-administered unicast address for
// a node index, convenient for simulations.
func NodeAddr(node int) Addr {
	var a Addr
	a[0] = 0x02 // locally administered, unicast
	binary.BigEndian.PutUint32(a[2:], uint32(node))
	return a
}

// Frame is a parsed Ethernet frame.
type Frame struct {
	Dst, Src  Addr
	EtherType uint16
	Payload   []byte
}

// Marshal errors.
var (
	ErrPayloadTooLarge = errors.New("mac: payload exceeds MTU")
	ErrFrameTooShort   = errors.New("mac: frame below minimum size")
	ErrBadFCS          = errors.New("mac: FCS mismatch")
)

// Marshal renders the frame to wire bytes: header, payload, padding to the
// 64 B minimum, and CRC-32 FCS. The preamble and IFG are not part of the
// returned bytes; use WireBytes for full bandwidth accounting.
func (f *Frame) Marshal() ([]byte, error) {
	if len(f.Payload) > MTUBytes {
		return nil, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(f.Payload), MTUBytes)
	}
	n := HeaderBytes + len(f.Payload)
	if n+FCSBytes < MinFrameBytes {
		n = MinFrameBytes - FCSBytes
	}
	buf := make([]byte, n+FCSBytes)
	copy(buf[0:], f.Dst[:])
	copy(buf[AddrBytes:], f.Src[:])
	binary.BigEndian.PutUint16(buf[2*AddrBytes:], f.EtherType)
	copy(buf[HeaderBytes:], f.Payload)
	fcs := crc32.ChecksumIEEE(buf[:n])
	binary.LittleEndian.PutUint32(buf[n:], fcs)
	return buf, nil
}

// Unmarshal parses wire bytes produced by Marshal, verifying the FCS.
// The returned payload includes any padding (the MAC cannot distinguish pad
// bytes from payload; higher layers carry their own lengths).
func Unmarshal(wire []byte) (*Frame, error) {
	if len(wire) < MinFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooShort, len(wire))
	}
	body := wire[:len(wire)-FCSBytes]
	want := binary.LittleEndian.Uint32(wire[len(wire)-FCSBytes:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, ErrBadFCS
	}
	var f Frame
	copy(f.Dst[:], body[0:])
	copy(f.Src[:], body[AddrBytes:])
	f.EtherType = binary.BigEndian.Uint16(body[2*AddrBytes:])
	f.Payload = append([]byte(nil), body[HeaderBytes:]...)
	return &f, nil
}

// FrameBytesFor reports the on-wire frame size (header+payload+pad+FCS) for
// an n-byte payload, excluding preamble and IFG.
func FrameBytesFor(n int) int {
	size := HeaderBytes + n + FCSBytes
	if size < MinFrameBytes {
		size = MinFrameBytes
	}
	return size
}

// WireBytes reports the full link occupancy of one frame carrying an n-byte
// payload: preamble + frame + inter-frame gap. This is the denominator in
// the paper's Limitation 1 and 2 bandwidth-overhead arguments.
func WireBytes(n int) int {
	return PreambleBytes + FrameBytesFor(n) + IFGBytes
}

// Efficiency reports the fraction of link bandwidth delivering payload when
// sending n-byte payloads back to back.
func Efficiency(n int) float64 {
	return float64(n) / float64(WireBytes(n))
}
