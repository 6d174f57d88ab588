package wire

import (
	"bytes"
	"reflect"
	"testing"
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
