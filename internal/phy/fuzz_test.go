package phy

import (
	"bytes"
	"testing"
)

// FuzzMemMsgRoundTrip checks the block-level memory-message codec is the
// identity over arbitrary headers and bodies: Encode must produce exactly
// WireBlocks blocks, and an RxDemux fed them must complete the message on
// the last one and reproduce it — the PHY-granularity analogue of the wire
// codec's datagram round trip.
func FuzzMemMsgRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, []byte(nil))
	f.Add([]byte{0xff, 0, 0xff, 0, 0xff, 0, 0xff}, []byte{0xaa})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9}, bytes.Repeat([]byte{0x5c}, BlockPayloadBytes))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0}, bytes.Repeat([]byte{7}, 3*BlockPayloadBytes+5))

	f.Fuzz(func(t *testing.T, hdr, body []byte) {
		const maxBody = 1 << 16
		if len(body) > maxBody {
			body = body[:maxBody]
		}
		var m MemMsg
		copy(m.Header[:], hdr)
		m.Body = body

		blocks := m.Encode()
		if len(blocks) != m.WireBlocks() {
			t.Fatalf("Encode produced %d blocks, WireBlocks says %d", len(blocks), m.WireBlocks())
		}
		if w := MemMsgWireBlocks(len(body)); w != len(blocks) {
			t.Fatalf("MemMsgWireBlocks(%d) = %d, Encode produced %d", len(body), w, len(blocks))
		}
		got, n, err := demux(blocks)
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if n != len(blocks) {
			t.Fatalf("decode consumed %d of %d blocks", n, len(blocks))
		}
		if got.Header != m.Header {
			t.Fatalf("header round trip: sent %x got %x", m.Header, got.Header)
		}
		if !bytes.Equal(got.Body, m.Body) {
			t.Fatalf("body round trip: sent %d bytes, got %d", len(m.Body), len(got.Body))
		}
	})
}
