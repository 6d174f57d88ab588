package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// These tests pin the two aliasing contracts of the bulk path: a decoded
// Msg views its datagram, and a response is built inside its call slot's
// retained datagram.

func TestDecodeIntoViewsDatagram(t *testing.T) {
	payload := bytes.Repeat([]byte{0x11}, 300)
	enc, err := (&Msg{Kind: KindWREQ, ID: 7, Addr: 64, Count: 300, Data: payload}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var m Msg
	m.Data = make([]byte, 0, 4096) // capacity a copying decode would have reused
	if err := DecodeInto(&m, enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data, payload) {
		t.Fatal("decoded payload differs")
	}
	if &m.Data[0] != &enc[headerBytes] {
		t.Fatal("Data is a copy, not a view of the datagram")
	}
	if cap(m.Data) != len(m.Data) {
		t.Fatalf("cap(Data)=%d, len=%d: an append could reach the CRC", cap(m.Data), len(m.Data))
	}
	enc[headerBytes+5] = 0x99
	if m.Data[5] != 0x99 {
		t.Fatal("a change to the datagram does not show through Data")
	}
	crc := append([]byte(nil), enc[len(enc)-crcBytes:]...)
	m.Data = append(m.Data, 0xff)
	if !bytes.Equal(enc[len(enc)-crcBytes:], crc) {
		t.Fatal("append to Data overwrote the datagram's CRC")
	}

	// An empty payload leaves Data nil, whatever m held before.
	for _, empty := range []*Msg{{Kind: KindWACK, ID: 7}, {Kind: KindRMWREQ, ID: 8, Op: 2, Args: []uint64{1, 2}}} {
		enc, err := empty.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&m, enc); err != nil {
			t.Fatal(err)
		}
		if m.Data != nil {
			t.Fatalf("%v: empty payload decoded to non-nil Data (len %d cap %d)", empty.Kind, len(m.Data), cap(m.Data))
		}
	}
}

// TestDecodeIntoStillRejects runs every rejection of the codec tests, plus
// the structural ones only a hand-built datagram reaches, against a Msg that
// already views another datagram: viewing must not have weakened a check.
func TestDecodeIntoStillRejects(t *testing.T) {
	good, err := (&Msg{Kind: KindWREQ, ID: 1, Count: 32, Data: bytes.Repeat([]byte{7}, 32)}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// reseal recomputes the CRC after a header edit, so the structural
	// check behind it is the one that has to fire.
	reseal := func(b []byte, edit func(b []byte)) []byte {
		b = append([]byte(nil), b...)
		edit(b)
		body := b[:len(b)-crcBytes]
		binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, castagnoli))
		return b
	}
	short, err := (&Msg{Kind: KindWREQ, ID: 1, Count: 8, Data: make([]byte, 8)}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"truncated header", good[:headerBytes], ErrShort},
		{"truncated payload", good[:len(good)-3], ErrChecksum},
		{"oversize", make([]byte, MaxDatagram+1), ErrTooLarge},
		{"version", reseal(good, func(b []byte) { b[0] = Version + 1 }), ErrVersion},
		{"kind zero", reseal(good, func(b []byte) { b[1] = 0 }), ErrBadKind},
		{"kind high", reseal(good, func(b []byte) { b[1] = byte(kindMax) + 1 }), ErrBadKind},
		{"status", reseal(good, func(b []byte) { b[2] = byte(statusMax) + 1 }), ErrBadMsg},
		{"too many args", reseal(good, func(b []byte) { b[4] = MaxArgs + 1 }), ErrBadMsg},
		{"args do not fit", reseal(short, func(b []byte) { b[4] = 2 }), ErrBadMsg},
		{"payload read as args", reseal(good, func(b []byte) { b[4] = MaxArgs }), nil}, // 32 bytes are 4 args: legal
	}
	for _, c := range cases {
		var m Msg
		if err := DecodeInto(&m, good); err != nil {
			t.Fatal(err)
		}
		err := DecodeInto(&m, c.b)
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: %v, want accepted", c.name, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x04
		if err := DecodeInto(new(Msg), bad); err == nil {
			t.Errorf("flip at byte %d of %d went undetected", i, len(good))
		}
	}
}

func TestPooledMsgHoldsNoDatagram(t *testing.T) {
	enc, err := (&Msg{Kind: KindRRESP, ID: 3, Data: bytes.Repeat([]byte{5}, 128)}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := getMsg()
	if err := DecodeInto(m, enc); err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != 128 {
		t.Fatalf("decoded %d payload bytes", len(m.Data))
	}
	putMsg(m)
	// Draw it back out (the pool hands a goroutine its own last Put first):
	// whatever the pool holds, m included, must carry no payload.
	var held []*Msg
	for i := 0; i < 16; i++ {
		g := getMsg()
		held = append(held, g)
		if g.Data != nil || len(g.Args) != 0 || g.Kind != 0 || g.ID != 0 {
			t.Fatalf("pooled Msg not reset, holds %d bytes (cap %d): %+v", len(g.Data), cap(g.Data), g)
		}
		if g == m {
			break
		}
	}
	for _, g := range held {
		putMsg(g)
	}
}

// TestAppendEncodeAliasedPayload: the payload may live anywhere in dst's
// backing array past the fixed header — at its offset (no copy), after it,
// or before it where the args go — and the encoding is the one an unaliased
// payload gives.
func TestAppendEncodeAliasedPayload(t *testing.T) {
	const n = 200
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	for _, args := range [][]uint64{nil, {0xa1a2a3a4a5a6a7a8, 0xb1b2b3b4b5b6b7b8}} {
		ref, err := (&Msg{Kind: KindRRESP, ID: 9, Status: StatusOK, Args: args, Data: want}).AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		off := headerBytes + 8*len(args)
		for _, at := range []int{off, off + 8, off + n, headerBytes, headerBytes + 3} {
			buf := make([]byte, 0, 2*len(ref)+n)
			full := buf[:cap(buf)]
			for i := range full {
				full[i] = 0xcc
			}
			copy(full[at:], want)
			m := &Msg{Kind: KindRRESP, ID: 9, Args: args, Data: full[at : at+n]}
			got, err := m.AppendEncode(buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("args=%d payload at %d (offset %d): encoding differs from the unaliased one", len(args), at, off)
			}
			if &got[0] != &full[0] {
				t.Errorf("args=%d payload at %d: dst was reallocated although it had room", len(args), at)
			}
		}
	}
}

// capturePipe keeps a copy of every datagram sent through it.
type capturePipe struct{ sent [][]byte }

func (p *capturePipe) Send(b []byte) error {
	p.sent = append(p.sent, append([]byte(nil), b...))
	return nil
}

func (p *capturePipe) Close() error { return nil }

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

// TestResponderInPlaceResponses: whatever a handler leaves in resp.Data —
// the window resliced, a fresh slice, a slice an append grew past the
// window, a subslice of the window — the right bytes go on the wire, a
// duplicate is answered with the same bytes without re-executing, and an
// over-large response still gets an answer. Two call slots make every
// request after the second build its response in its slot's previous
// buffer, of another size.
func TestResponderInPlaceResponses(t *testing.T) {
	const n = 1000
	type handlerCase struct {
		name    string
		count   uint32 // RREQ demand
		handler func(req, resp *Msg)
		want    func(id uint32) []byte
		status  Status
		inPlace bool
	}
	// seed is distinct for every request of the test (two slots, seq < 64).
	seed := func(id uint32) byte { return byte(id>>slotBits)<<1 | byte(id&1) }
	fill := func(d []byte, id uint32) { copy(d, pattern(len(d), seed(id))) }
	cases := []handlerCase{
		{name: "reslices the window", count: n, inPlace: true,
			handler: func(req, resp *Msg) { resp.Data = resp.Data[:req.Count]; fill(resp.Data, req.ID) },
			want:    func(id uint32) []byte { return pattern(n, seed(id)) }},
		{name: "reslices the window short", count: n, inPlace: true,
			handler: func(req, resp *Msg) { resp.Data = resp.Data[:req.Count/2]; fill(resp.Data, req.ID) },
			want:    func(id uint32) []byte { return pattern(n/2, seed(id)) }},
		{name: "appends within the window", count: n, inPlace: true,
			handler: func(req, resp *Msg) { resp.Data = append(resp.Data, pattern(int(req.Count), seed(req.ID))...) },
			want:    func(id uint32) []byte { return pattern(n, seed(id)) }},
		{name: "assigns a fresh slice", count: n,
			handler: func(req, resp *Msg) { resp.Data = pattern(int(req.Count), seed(req.ID)) },
			want:    func(id uint32) []byte { return pattern(n, seed(id)) }},
		{name: "appends past the window", count: 64,
			handler: func(req, resp *Msg) { resp.Data = append(resp.Data, pattern(cap(resp.Data)+100, seed(req.ID))...) },
			want:    nil /* length depends on the recycled buffer; checked against the pattern */},
		{name: "returns a subslice of the window", count: n,
			handler: func(req, resp *Msg) {
				resp.Data = resp.Data[:req.Count]
				fill(resp.Data, req.ID)
				resp.Data = resp.Data[8:]
			},
			want: func(id uint32) []byte { return pattern(n, seed(id))[8:] }},
		{name: "leaves the window empty", count: n,
			handler: func(req, resp *Msg) { resp.Status = StatusRange },
			want:    func(uint32) []byte { return nil }, status: StatusRange},
		{name: "answers over-large", count: n,
			handler: func(req, resp *Msg) { resp.Data = make([]byte, MaxData+1) },
			want:    func(uint32) []byte { return nil }, status: StatusProto},
		{name: "demand beyond MaxData", count: MaxData + 1,
			handler: func(req, resp *Msg) { resp.Data = append(resp.Data, 1, 2, 3) },
			want:    func(uint32) []byte { return []byte{1, 2, 3} }, inPlace: true},
	}
	pipe := &capturePipe{}
	var cur *handlerCase
	var window *byte // first byte of the window the handler was given
	executed := 0
	rm := NewResponderMetrics(nil)
	r := NewResponder(pipe, ResponderConfig{Window: 2, Metrics: rm}, func(req, resp *Msg) {
		executed++
		if len(resp.Data) != 0 {
			t.Errorf("%s: resp.Data arrives with length %d, want a zero-length window", cur.name, len(resp.Data))
		}
		if want := int(req.Count); req.Count <= MaxData && cap(resp.Data) < want {
			t.Errorf("%s: window capacity %d below the demand %d", cur.name, cap(resp.Data), want)
		}
		window = &resp.Data[:1][0]
		cur.handler(req, resp)
	})
	var id, issued uint32
	for round := 0; round < 3; round++ {
		for i := range cases {
			cur = &cases[i]
			issued++
			id = slotID(issued%2, issued/2)
			req, err := (&Msg{Kind: KindRREQ, ID: id, Addr: 4096, Count: cur.count}).AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			before := len(pipe.sent)
			r.Deliver(req)
			if len(pipe.sent) != before+1 {
				t.Fatalf("%s: %d datagrams sent for one request", cur.name, len(pipe.sent)-before)
			}
			first := pipe.sent[before]
			var got Msg
			if err := DecodeInto(&got, first); err != nil {
				t.Fatalf("%s: response does not decode: %v", cur.name, err)
			}
			if got.Kind != KindRRESP || got.ID != id || got.Status != cur.status {
				t.Fatalf("%s: response %v id=%d status=%v, want RRESP id=%d status=%v", cur.name, got.Kind, got.ID, got.Status, id, cur.status)
			}
			if cur.want != nil {
				if !bytes.Equal(got.Data, cur.want(id)) {
					t.Fatalf("%s (round %d): wrong payload on the wire (%d bytes)", cur.name, round, len(got.Data))
				}
			} else if !bytes.Equal(got.Data, pattern(len(got.Data), seed(id))) || len(got.Data) < 164 {
				t.Fatalf("%s (round %d): wrong payload on the wire (%d bytes)", cur.name, round, len(got.Data))
			}
			// The entry's buffer is the datagram: an in-place payload sits in
			// the window the handler was given.
			r.mu.Lock()
			enc := r.slots[id&slotMask].e.enc
			r.mu.Unlock()
			if !bytes.Equal(enc, first) {
				t.Fatalf("%s: cached response differs from the one sent", cur.name)
			}
			if cur.inPlace && &enc[headerBytes] != window {
				t.Errorf("%s: payload was not built in the entry's datagram", cur.name)
			}
			ran := executed
			r.Deliver(req) // a retransmission
			if executed != ran {
				t.Fatalf("%s: duplicate re-executed the handler", cur.name)
			}
			if len(pipe.sent) != before+2 || !bytes.Equal(pipe.sent[before+1], first) {
				t.Fatalf("%s: replayed duplicate differs from the first response", cur.name)
			}
		}
	}
	if st := countsOf(rm); st.Requests != uint64(issued) || st.Duplicates != uint64(issued) {
		t.Fatalf("responder stats %+v, want %d requests and as many duplicates", st, issued)
	}
}

// bulkServe is a Responder around a handler shaped like rmem.Server.Handle
// (grow-then-fill on reads, consume on writes) plus the request encoder the
// allocation tests drive it with.
type bulkServe struct {
	r       *Responder
	window  uint32
	n       uint32 // requests delivered
	scratch []byte
	payload []byte
	sink    byte
}

func newBulkServe(window, size int) *bulkServe {
	s := &bulkServe{window: uint32(window), payload: pattern(size, 1), scratch: make([]byte, 0, MaxDatagram)}
	s.r = NewResponder(nullPipe{}, ResponderConfig{Window: window}, func(req, resp *Msg) {
		switch req.Kind {
		case KindRREQ:
			resp.Data = growTestBytes(resp.Data, int(req.Count))
			copy(resp.Data, s.payload)
		case KindWREQ:
			s.sink ^= req.Data[len(req.Data)-1]
		}
	})
	return s
}

// deliver sends the next request, going round the window's call slots.
func (s *bulkServe) deliver(t testing.TB, kind Kind) {
	id := slotID(s.n%s.window, s.n/s.window)
	s.n++
	m := Msg{Kind: kind, ID: id, Addr: uint64(s.n) * 64, Count: uint32(len(s.payload))}
	if kind == KindWREQ {
		m.Data = s.payload
	}
	enc, err := m.AppendEncode(s.scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	s.scratch = enc
	s.r.Deliver(enc)
}

type nullPipe struct{}

func (nullPipe) Send([]byte) error { return nil }
func (nullPipe) Close() error      { return nil }

// TestResponderBulkAllocs pins the memory behaviour of the in-place
// response: a slot's entry buffer is the only per-response storage, sized
// once from RREQ.Count before the handler runs. A handler that had to fall
// back to its own make while the entry was small would double the warm-up
// garbage (the 156 -> 200 MB rss of loop-bulk16k-rw this replaces).
func TestResponderBulkAllocs(t *testing.T) {
	const window, size = 64, 16384
	s := newBulkServe(window, size)
	round := func() {
		for i := 0; i < 2*window; i++ {
			kind := KindRREQ
			if i%2 == 1 {
				kind = KindWREQ
			}
			s.deliver(t, kind)
		}
	}
	round() // every slot in use, every entry that serves reads at its size
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Errorf("steady state: %v allocs per %d alternating 16 KiB reads and writes, want 0", got, 2*window)
	}

	// Growth: a window of slots that so far held write acks. Each read now
	// rebuilds one of them in place and must grow it exactly once.
	g := newBulkServe(256, size)
	for i := 0; i < 256; i++ {
		g.deliver(t, KindWREQ)
	}
	if got := testing.AllocsPerRun(100, func() { g.deliver(t, KindRREQ) }); got != 1 {
		t.Errorf("growing a slot's entry to a 16 KiB response: %v allocs, want 1", got)
	}
}
