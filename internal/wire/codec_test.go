package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// sampleMsgs covers every kind with representative field use.
func sampleMsgs() []*Msg {
	return []*Msg{
		{Kind: KindHello, ID: 0},
		{Kind: KindHelloAck, ID: 0, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: KindBye, ID: 9},
		{Kind: KindByeAck, ID: 9},
		{Kind: KindRREQ, ID: 1, Addr: 0xdeadbeef, Count: 4096},
		{Kind: KindRRESP, ID: 1, Data: bytes.Repeat([]byte{0xab}, 4096)},
		{Kind: KindWREQ, ID: 2, Addr: 64, Count: 100, Data: bytes.Repeat([]byte{0x5a}, 100)},
		{Kind: KindWACK, ID: 2},
		{Kind: KindRMWREQ, ID: 3, Addr: 8, Op: 1, Args: []uint64{7, ^uint64(0)}},
		{Kind: KindRMWRESP, ID: 3, Data: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
		{Kind: KindWACK, ID: 4, Status: StatusRange},
		{Kind: KindRMWRESP, ID: 5, Status: StatusOp},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		enc, err := m.AppendEncode(nil)
		if err != nil {
			t.Fatalf("encode %v: %v", m.Kind, err)
		}
		if len(enc) != m.EncodedSize() {
			t.Fatalf("%v: EncodedSize=%d, got %d bytes", m.Kind, m.EncodedSize(), len(enc))
		}
		got := new(Msg)
		if err := DecodeInto(got, enc); err != nil {
			t.Fatalf("decode %v: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v round trip:\n sent %+v\n got  %+v", m.Kind, m, got)
		}
	}
}

// TestCodecDetectsBitFlips: any single corrupted byte must fail the CRC (or
// an earlier validation) — the live analogue of the fabric's corrupted-block
// detection.
func TestCodecDetectsBitFlips(t *testing.T) {
	m := &Msg{Kind: KindWREQ, ID: 42, Addr: 128, Count: 16, Data: bytes.Repeat([]byte{3}, 16)}
	enc, err := m.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x20
		if err := DecodeInto(new(Msg), bad); err == nil {
			t.Errorf("flip at byte %d of %d went undetected", i, len(enc))
		}
	}
}

func TestCodecRejects(t *testing.T) {
	valid, err := (&Msg{Kind: KindRREQ, ID: 1, Count: 8}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"truncated", valid[:headerBytes], ErrShort},
		{"oversize", make([]byte, MaxDatagram+1), ErrTooLarge},
	}
	for _, c := range cases {
		if err := DecodeInto(new(Msg), c.b); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}

	if _, err := (&Msg{Kind: 0}).AppendEncode(nil); !errors.Is(err, ErrBadKind) {
		t.Errorf("encode kind 0: %v", err)
	}
	if _, err := (&Msg{Kind: KindRMWREQ, Args: make([]uint64, MaxArgs+1)}).AppendEncode(nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("encode too many args: %v", err)
	}
	if _, err := (&Msg{Kind: KindRRESP, Data: make([]byte, MaxData+1)}).AppendEncode(nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("encode oversize payload: %v", err)
	}
}

func TestKindRequestResponsePairs(t *testing.T) {
	pairs := map[Kind]Kind{
		KindHello:  KindHelloAck,
		KindBye:    KindByeAck,
		KindRREQ:   KindRRESP,
		KindWREQ:   KindWACK,
		KindRMWREQ: KindRMWRESP,
	}
	for req, resp := range pairs {
		if !req.IsRequest() {
			t.Errorf("%v should be a request", req)
		}
		if resp.IsRequest() {
			t.Errorf("%v should not be a request", resp)
		}
		if got := req.Response(); got != resp {
			t.Errorf("%v response: got %v want %v", req, got, resp)
		}
	}
}

func TestStatusErr(t *testing.T) {
	if err := StatusOK.Err(); err != nil {
		t.Errorf("StatusOK.Err() = %v", err)
	}
	if err := StatusRange.Err(); !errors.Is(err, ErrRemote) {
		t.Errorf("StatusRange.Err() = %v", err)
	}
}
