package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"
)

// FuzzDecode throws arbitrary datagrams at the decoder: it must never panic,
// and anything it accepts must re-encode to the exact input (the codec is
// canonical: one datagram per message, no redundant encodings).
func FuzzDecode(f *testing.F) {
	for _, m := range []*Msg{
		{Kind: KindHello},
		{Kind: KindRREQ, ID: 7, Addr: 4096, Count: 64},
		{Kind: KindWREQ, ID: 8, Addr: 0, Count: 3, Data: []byte{1, 2, 3}},
		{Kind: KindRMWREQ, ID: 9, Addr: 8, Op: 2, Args: []uint64{5, 6}},
		{Kind: KindRRESP, ID: 7, Data: bytes.Repeat([]byte{0xfe}, 200)},
	} {
		enc, err := m.AppendEncode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, headerBytes+crcBytes))

	f.Fuzz(func(t *testing.T, b []byte) {
		m := new(Msg)
		if err := DecodeInto(m, b); err != nil {
			return
		}
		enc, err := m.AppendEncode(nil)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("non-canonical datagram:\n in  %x\n out %x", b, enc)
		}
	})
}

// FuzzRoundTrip builds structurally valid messages from fuzzed fields and
// checks AppendEncode/DecodeInto is the identity on them.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(KindRREQ), uint8(0), uint8(0), uint32(1), uint64(64), uint32(8), uint64(0), uint8(0), []byte(nil))
	f.Add(uint8(KindRMWREQ), uint8(0), uint8(1), uint32(2), uint64(8), uint32(0), uint64(77), uint8(2), []byte(nil))
	f.Add(uint8(KindWREQ), uint8(0), uint8(0), uint32(3), uint64(128), uint32(5), uint64(0), uint8(0), []byte("hello"))

	f.Fuzz(func(t *testing.T, kind, status, op uint8, id uint32, addr uint64, count uint32, arg uint64, nargs uint8, data []byte) {
		m := &Msg{
			Kind:   Kind(kind%uint8(kindMax)) + 1,
			Status: Status(status % uint8(statusMax+1)),
			Op:     op,
			ID:     id,
			Addr:   addr,
			Count:  count,
		}
		if n := int(nargs) % (MaxArgs + 1); n > 0 {
			m.Args = make([]uint64, n)
			for i := range m.Args {
				m.Args[i] = arg + uint64(i)
			}
		}
		if len(data) > MaxData {
			data = data[:MaxData]
		}
		if len(data) > 0 {
			m.Data = data
		}
		enc, err := m.AppendEncode(nil)
		if err != nil {
			t.Fatalf("encode valid message: %v", err)
		}
		got := new(Msg)
		if err := DecodeInto(got, enc); err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", m, got)
		}
	})
}

// appendBundle appends the bundle of msgs to dst, laid out as bundleMarker
// documents it.
func appendBundle(dst []byte, msgs ...[]byte) []byte {
	dst = append(dst, bundleMarker)
	for _, m := range msgs {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m)))
		dst = append(dst, m...)
	}
	return dst
}

// splitAll returns every frame framesOf yields for p.
func splitAll(p []byte) [][]byte {
	var out [][]byte
	for f := framesOf(p); f.ok; f.next() {
		out = append(out, f.cur)
	}
	return out
}

func mustEncode(t testing.TB, m *Msg) []byte {
	t.Helper()
	enc, err := m.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// FuzzBundleSplit: on any datagram the splitter never panics and yields only
// capacity-clipped views inside the datagram, in order and without overlap;
// and any concatenation of valid frames, bundled, splits back into exactly
// those frames (one frame also round-trips as a plain datagram).
func FuzzBundleSplit(f *testing.F) {
	if bundleMarker == Version {
		f.Fatal("bundleMarker must differ from the Version every message starts with")
	}
	f.Add([]byte{})
	f.Add([]byte{bundleMarker})
	f.Add([]byte{bundleMarker, 5, 0, 1})
	f.Add([]byte{bundleMarker, 2, 0, 1, 2, 0})
	f.Add(appendBundle(nil, []byte("ab"), []byte("c"), nil))
	f.Add(mustEncode(f, &Msg{Kind: KindRREQ, ID: 7, Addr: 64, Count: 8}))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := data[:len(data):len(data)]
		base := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		end := 0
		n := 0
		for _, fr := range splitAll(p) {
			if n++; n > len(p)/bundleLenBytes+1 {
				t.Fatalf("%d frames from a %d-byte datagram", n, len(p))
			}
			if cap(fr) != len(fr) {
				t.Fatalf("frame of %d bytes has capacity %d: an append could overwrite the next", len(fr), cap(fr))
			}
			if len(fr) == 0 {
				continue
			}
			off := int(uintptr(unsafe.Pointer(unsafe.SliceData(fr))) - base)
			if off < end || off+len(fr) > len(p) {
				t.Fatalf("frame [%d, %d) outside the datagram's unread bytes [%d, %d)", off, off+len(fr), end, len(p))
			}
			end = off + len(fr)
		}

		var msgs [][]byte
		for rest := data; len(rest) > 0 && len(msgs) < 40; {
			k := min(int(rest[0]), len(rest)-1)
			msgs = append(msgs, mustEncode(t, &Msg{Kind: KindWREQ, ID: uint32(len(msgs)), Count: uint32(k), Data: rest[1 : 1+k]}))
			rest = rest[1+k:]
		}
		if len(msgs) == 0 {
			return
		}
		if got := splitAll(msgs[0]); len(got) != 1 || !bytes.Equal(got[0], msgs[0]) {
			t.Fatalf("a plain message split into %d frames", len(got))
		}
		got := splitAll(appendBundle(nil, msgs...))
		if len(got) != len(msgs) {
			t.Fatalf("bundle of %d frames split into %d", len(msgs), len(got))
		}
		for i := range msgs {
			if !bytes.Equal(got[i], msgs[i]) {
				t.Fatalf("frame %d: got %x, want %x", i, got[i], msgs[i])
			}
			if err := DecodeInto(new(Msg), got[i]); err != nil {
				t.Fatalf("frame %d does not decode: %v", i, err)
			}
		}
	})
}
