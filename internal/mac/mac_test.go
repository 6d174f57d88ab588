package mac

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	f := &Frame{
		Dst:       NodeAddr(1),
		Src:       NodeAddr(2),
		EtherType: EtherTypeRemoteMem,
		Payload:   bytes.Repeat([]byte{0xab}, 100),
	}
	wire, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != f.Dst || got.Src != f.Src || got.EtherType != f.EtherType {
		t.Fatal("header mismatch")
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestMinimumFramePadding(t *testing.T) {
	// An 8 B payload — a remote memory read request — still occupies a full
	// 64 B frame: the paper's Limitation 1.
	f := &Frame{Payload: make([]byte, 8)}
	wire, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != MinFrameBytes {
		t.Fatalf("8B payload frame = %d bytes, want %d", len(wire), MinFrameBytes)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	// Padding is indistinguishable at the MAC: payload comes back padded.
	if len(got.Payload) != MinPayloadBytes {
		t.Fatalf("padded payload = %d, want %d", len(got.Payload), MinPayloadBytes)
	}
}

func TestMTUEnforced(t *testing.T) {
	f := &Frame{Payload: make([]byte, MTUBytes+1)}
	if _, err := f.Marshal(); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversize marshal: %v", err)
	}
	f.Payload = f.Payload[:MTUBytes]
	if _, err := f.Marshal(); err != nil {
		t.Fatalf("marshal of a full MTU: %v", err)
	}
}

func TestFCSDetectsCorruption(t *testing.T) {
	f := &Frame{Dst: NodeAddr(1), Payload: make([]byte, 64)}
	wire, _ := f.Marshal()
	for _, i := range []int{0, 13, len(wire) - 1} {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x01
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadFCS) {
			t.Errorf("corruption at byte %d not detected: %v", i, err)
		}
	}
}

func TestUnmarshalTooShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 32)); !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("short frame: %v", err)
	}
}

func TestWireBytesAccounting(t *testing.T) {
	// 8B payload: 8 preamble + 64 frame + 12 IFG = 84 bytes on the wire.
	if got := WireBytes(8); got != 84 {
		t.Fatalf("WireBytes(8) = %d, want 84", got)
	}
	// Paper §2.4: "88% bandwidth wastage while sending 8B RREQ messages
	// using minimum-sized Ethernet frames" — 8/64 leaves ~88% of the frame
	// wasted even before preamble/IFG. With full wire accounting the
	// efficiency is below 10%.
	if eff := Efficiency(8); eff > 0.10 {
		t.Fatalf("Efficiency(8) = %.3f, want < 0.10", eff)
	}
	// Paper §2.4 Limitation 2: IFG alone is ~16% overhead for 64B frames.
	// 12 IFG / 64 frame = 18.75%; with preamble counted, per-frame overhead
	// of (12+8)/84 ≈ 24%.
	overhead := float64(IFGBytes) / float64(MinFrameBytes)
	if math.Abs(overhead-0.1875) > 1e-9 {
		t.Fatalf("IFG overhead = %.4f", overhead)
	}
}

func TestEfficiencyMonotone(t *testing.T) {
	prev := 0.0
	for n := 1; n <= MTUBytes; n++ {
		e := Efficiency(n)
		if e < prev {
			t.Fatalf("efficiency not monotone at %d: %f < %f", n, e, prev)
		}
		prev = e
	}
	if prev < 0.95 {
		t.Fatalf("MTU efficiency = %f, want > 0.95", prev)
	}
}

func TestNodeAddrDistinct(t *testing.T) {
	seen := map[Addr]bool{}
	for i := 0; i < 512; i++ {
		a := NodeAddr(i)
		if seen[a] {
			t.Fatalf("duplicate address for node %d", i)
		}
		seen[a] = true
		if a[0]&0x01 != 0 {
			t.Fatalf("node %d address is multicast", i)
		}
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(dst, src [6]byte, et uint16, payload []byte) bool {
		if len(payload) > MTUBytes {
			payload = payload[:MTUBytes]
		}
		in := &Frame{Dst: dst, Src: src, EtherType: et, Payload: payload}
		wire, err := in.Marshal()
		if err != nil {
			return false
		}
		if len(wire) != FrameBytesFor(len(payload)) {
			return false
		}
		out, err := Unmarshal(wire)
		if err != nil {
			return false
		}
		// Payload may gain padding, never lose bytes.
		return out.Dst == in.Dst && out.Src == in.Src &&
			out.EtherType == in.EtherType &&
			len(out.Payload) >= len(in.Payload) &&
			bytes.Equal(out.Payload[:len(in.Payload)], in.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
