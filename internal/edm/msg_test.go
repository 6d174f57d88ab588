package edm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/memctl"
	"repro/internal/phy"
)

// marshalWhole renders a WREQ or RRES as one chunk spanning its whole body,
// the form the host sends when the body fits a single grant.
func marshalWhole(m *Message) (phy.MemMsg, error) {
	body, err := m.Body()
	if err != nil {
		return phy.MemMsg{}, err
	}
	return m.MarshalChunk(body, 0, len(body))
}

func TestMessageWireRoundTrip(t *testing.T) {
	cases := []*Message{
		{Kind: KindWREQ, Src: 3, Dst: 200, ID: 7, Addr: 0xdeadbeef, Data: bytes.Repeat([]byte{9}, 64)},
		{Kind: KindWREQ, Src: 0, Dst: 1, ID: 255, Addr: 8, Data: []byte{1}},
		{Kind: KindRRES, Src: 511, Dst: 0, ID: 42, Data: bytes.Repeat([]byte{3}, 100)},
	}
	for _, in := range cases {
		w, err := marshalWhole(in)
		if err != nil {
			t.Fatalf("%v: %v", in.Kind, err)
		}
		kind, src, dst, id, size, cont := PeekHeader(w)
		if kind != in.Kind || src != in.Src || dst != in.Dst || id != in.ID || cont || size != len(w.Body) {
			t.Fatalf("%v: header mismatch kind=%v src=%d dst=%d id=%d size=%d cont=%v",
				in.Kind, kind, src, dst, id, size, cont)
		}
		data := w.Body
		if in.Kind == KindWREQ {
			// The host's applyWrite reads the address off the body's head.
			if addr := binary.LittleEndian.Uint64(data); addr != in.Addr {
				t.Fatalf("%v: addr %#x != %#x", in.Kind, addr, in.Addr)
			}
			data = data[8:]
		}
		if !bytes.Equal(data, in.Data) {
			t.Fatalf("%v: data mismatch", in.Kind)
		}
	}
}

func TestRREQWireCarriesDemand(t *testing.T) {
	in := &Message{Kind: KindRREQ, Src: 1, Dst: 2, ID: 9, Addr: 4096, Len: 1024}
	w, err := in.MarshalRREQ()
	if err != nil {
		t.Fatal(err)
	}
	// 8 B RREQ = 3 blocks on the wire.
	if got := w.WireBlocks(); got != 3 {
		t.Fatalf("RREQ wire blocks = %d, want 3", got)
	}
	out, demand, err := UnmarshalRREQ(w)
	if err != nil {
		t.Fatal(err)
	}
	if demand != 1024 || out.Addr != 4096 || out.Len != 1024 {
		t.Fatalf("demand=%d addr=%d len=%d", demand, out.Addr, out.Len)
	}
}

func TestRMWWire(t *testing.T) {
	in := &Message{Kind: KindRMW, Src: 1, Dst: 2, ID: 3, Addr: 64,
		Op: memctl.OpCAS, Args: []uint64{10, 20}}
	w, err := in.MarshalRREQ()
	if err != nil {
		t.Fatal(err)
	}
	out, demand, err := UnmarshalRREQ(w)
	if err != nil {
		t.Fatal(err)
	}
	if demand != 8 {
		t.Fatalf("RMW RRES demand = %d, want 8 (inferred from opcode)", demand)
	}
	if out.Op != memctl.OpCAS || len(out.Args) != 2 || out.Args[0] != 10 || out.Args[1] != 20 {
		t.Fatalf("RMW fields: %+v", out)
	}
}

func TestChunkedMarshal(t *testing.T) {
	m := &Message{Kind: KindRRES, Src: 1, Dst: 2, ID: 5}
	body := make([]byte, 200)
	for i := range body {
		body[i] = byte(i)
	}
	// Chunk into 64-byte wire messages and reassemble.
	var got []byte
	var total int
	for off := 0; off < len(body); off += 64 {
		n := 64
		if off+n > len(body) {
			n = len(body) - off
		}
		w, err := m.MarshalChunk(body, off, n)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, _, size, cont := PeekHeader(w)
		if size != len(body) {
			t.Fatalf("chunk at %d: size field %d, want %d", off, size, len(body))
		}
		if cont != (off > 0) {
			t.Fatalf("chunk at %d: cont=%v", off, cont)
		}
		got = append(got, w.Body...)
		total += len(w.Body)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("reassembled body mismatch")
	}
}

func TestChunkValidation(t *testing.T) {
	m := &Message{Kind: KindRRES, Src: 1, Dst: 2}
	body := make([]byte, 10)
	if _, err := m.MarshalChunk(body, 8, 4); !errors.Is(err, ErrBadWire) {
		t.Errorf("overrun chunk: %v", err)
	}
	if _, err := m.MarshalChunk(body, -1, 4); !errors.Is(err, ErrBadWire) {
		t.Errorf("negative offset: %v", err)
	}
	if _, err := m.MarshalChunk(body, 0, 0); !errors.Is(err, ErrBadWire) {
		t.Errorf("empty chunk: %v", err)
	}
}

func TestWireSizeLimits(t *testing.T) {
	m := &Message{Kind: KindWREQ, Src: 1, Dst: 2, Data: make([]byte, MaxMsgLen)}
	if _, err := marshalWhole(m); !errors.Is(err, ErrMsgTooLarge) {
		t.Errorf("oversize: %v", err)
	}
	m2 := &Message{Kind: KindRREQ, Src: 600, Dst: 2}
	if _, err := m2.MarshalRREQ(); !errors.Is(err, ErrBadPort) {
		t.Errorf("bad port: %v", err)
	}
}

func TestNotifyGrantBlocks(t *testing.T) {
	n := Notification{Src: 17, Dst: 300, ID: 200, Size: 4096}
	nb, err := n.PackNotify()
	if err != nil {
		t.Fatal(err)
	}
	if nb.Type() != phy.BTNotify {
		t.Fatal("notify block type wrong")
	}
	if got := UnpackNotify(nb.ControlPayload()); got != n {
		t.Fatalf("notify round trip: %+v", got)
	}
	g := GrantMsg{Dst: 300, ID: 200, Chunk: 256}
	gb, err := g.PackGrant()
	if err != nil {
		t.Fatal(err)
	}
	if gb.Type() != phy.BTGrant {
		t.Fatal("grant block type wrong")
	}
	if got := UnpackGrant(gb.ControlPayload()); got != g {
		t.Fatalf("grant round trip: %+v", got)
	}
}

func TestNotifyGrantAreSingleBlocks(t *testing.T) {
	// §3.1.4: a notification and a grant each fit in one 66-bit block.
	// Their wire cost is what makes the 6% overhead bound work for 64 B
	// chunks: 1 grant block per 10-block chunk.
	n, _ := Notification{Src: 1, Dst: 2, ID: 3, Size: 64}.PackNotify()
	g, _ := GrantMsg{Dst: 2, ID: 3, Chunk: 64}.PackGrant()
	if !n.IsMemory() || !g.IsMemory() {
		t.Fatal("control blocks not in EDM vocabulary")
	}
}

func TestHeaderPackProperty(t *testing.T) {
	f := func(kind uint8, src, dst uint16, id uint8, size uint16, op uint8, cont bool) bool {
		h := header{
			kind: Kind(kind%4 + 1),
			src:  int(src % MaxPorts),
			dst:  int(dst % MaxPorts),
			id:   id,
			size: uint32(size),
			op:   op,
			cont: cont,
		}
		return unpackHeader(h.pack()) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeekKindMatchesUnmarshal(t *testing.T) {
	msgs := []*Message{
		{Kind: KindRREQ, Src: 1, Dst: 2, ID: 4, Len: 64},
		{Kind: KindRMW, Src: 1, Dst: 2, ID: 5, Op: memctl.OpSwap, Args: []uint64{1}},
		{Kind: KindWREQ, Src: 1, Dst: 2, Data: []byte{1, 2, 3}},
		{Kind: KindRRES, Src: 2, Dst: 1, Data: []byte{9}},
	}
	for _, m := range msgs {
		var w phy.MemMsg
		var err error
		req := m.Kind == KindRREQ || m.Kind == KindRMW
		if req {
			w, err = m.MarshalRREQ()
		} else {
			w, err = marshalWhole(m)
		}
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		kind, src, dst, id, size, _ := PeekHeader(w)
		if kind != m.Kind {
			t.Errorf("PeekHeader kind = %v, want %v", kind, m.Kind)
		}
		if !req {
			continue
		}
		// The switch classifies by PeekHeader and the memory node decodes
		// by UnmarshalRREQ: both must read the same routing fields.
		out, demand, err := UnmarshalRREQ(w)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if out.Kind != kind || out.Src != src || out.Dst != dst || out.ID != id || demand != size {
			t.Errorf("%v: UnmarshalRREQ %+v demand %d, PeekHeader %v %d->%d id %d size %d",
				m.Kind, out, demand, kind, src, dst, id, size)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindRREQ: "RREQ", KindWREQ: "WREQ", KindRMW: "RMWREQ", KindRRES: "RRES", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", k, got)
		}
	}
}

func TestWireSizeMatchesBody(t *testing.T) {
	// A WREQ's body is its 8-byte address followed by the data, and its
	// header's size field is the whole body's length.
	m := &Message{Kind: KindWREQ, Src: 0, Dst: 1, Addr: 4, Data: make([]byte, 100)}
	w, err := marshalWhole(m)
	if err != nil || len(w.Body) != 108 {
		t.Fatalf("marshalled body = %d bytes, %v", len(w.Body), err)
	}
	if _, _, _, _, size, _ := PeekHeader(w); size != 108 {
		t.Fatalf("header size = %d, want 108", size)
	}
}
