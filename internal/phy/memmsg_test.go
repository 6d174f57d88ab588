package phy

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func mkMsg(hdr byte, body []byte) MemMsg {
	var m MemMsg
	for i := range m.Header {
		m.Header[i] = hdr + byte(i)
	}
	m.Body = body
	return m
}

// demux feeds blocks through a fresh RxDemux, one per cycle as a receiver
// would, and returns the memory message it completes with the number of
// blocks fed up to and including its last block. A block the demux passes
// on to the frame stream is an error.
func demux(blocks []Block) (MemMsg, int, error) {
	var d RxDemux
	for i, b := range blocks {
		ev, err := d.Feed(b)
		if err != nil {
			return MemMsg{}, i, err
		}
		if ev.FrameBlock != nil {
			return MemMsg{}, i, fmt.Errorf("block %d (%v) passed to the frame stream", i, b)
		}
		if ev.Msg != nil {
			return *ev.Msg, i + 1, nil
		}
	}
	return MemMsg{}, len(blocks), errors.New("no memory message completed")
}

func TestMemMsgRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 6, 7, 8, 9, 15, 16, 63, 64, 256, 1024} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i*3 + 1)
		}
		in := mkMsg(0x10, body)
		blocks := in.Encode()
		if len(blocks) != in.WireBlocks() || len(blocks) != MemMsgWireBlocks(n) {
			t.Errorf("n=%d: encoded %d blocks, WireBlocks=%d", n, len(blocks), in.WireBlocks())
		}
		out, consumed, err := demux(blocks)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if consumed != len(blocks) {
			t.Errorf("n=%d: consumed %d of %d", n, consumed, len(blocks))
		}
		if out.Header != in.Header || !bytes.Equal(out.Body, in.Body) {
			t.Errorf("n=%d: message mismatch (got %d body bytes, want %d)", n, len(out.Body), len(in.Body))
		}
	}
}

func TestMemMsgSingleBlock(t *testing.T) {
	// A header-only message is a single 66-bit block — versus 10 blocks for
	// a minimum Ethernet frame. This is EDM design idea D1 in miniature.
	m := mkMsg(0x42, nil)
	blocks := m.Encode()
	if len(blocks) != 1 || blocks[0].Type() != BTMemSingle {
		t.Fatalf("header-only message = %v", blocks)
	}
}

func TestMemMsgWireOverheadVsEthernet(t *testing.T) {
	// An 8 B RREQ: EDM wire cost is 3 blocks (24.75 B) vs a minimum
	// Ethernet frame of 10 blocks + 12 B IFG. Check the block counts that
	// drive the paper's Figure 6 bandwidth argument.
	if got := MemMsgWireBlocks(8); got != 3 {
		t.Errorf("8B body = %d blocks, want 3", got)
	}
	if got := MemMsgWireBlocks(64); got != 10 {
		t.Errorf("64B body = %d blocks, want 10", got)
	}
	if got := MemMsgWireBlocks(256); got != 34 {
		t.Errorf("256B body = %d blocks, want 34", got)
	}
}

func TestRxDemuxSeparatesStreams(t *testing.T) {
	var d RxDemux
	mem := mkMsg(7, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	frame := bytes.Repeat([]byte{0x5a}, 64)
	frameBlocks := FrameToBlocks(frame)

	// Interleave: frame start, two frame data blocks, then a whole memory
	// message preempting the frame, then the rest of the frame.
	var stream []Block
	stream = append(stream, frameBlocks[:3]...)
	stream = append(stream, mem.Encode()...)
	stream = append(stream, frameBlocks[3:]...)
	stream = append(stream, ControlBlock(BTNotify, []byte{0xaa}), ControlBlock(BTGrant, []byte{0xbb}))

	var gotMem []MemMsg
	var gotNotify, gotGrant int
	var fd FrameDecoder
	var gotFrames [][]byte
	for _, b := range stream {
		ev, err := d.Feed(b)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Msg != nil {
			gotMem = append(gotMem, *ev.Msg)
		}
		if ev.Notify != nil {
			gotNotify++
			if ev.Notify[0] != 0xaa {
				t.Error("notify payload corrupted")
			}
		}
		if ev.Grant != nil {
			gotGrant++
		}
		if ev.FrameBlock != nil {
			f, done, err := fd.Feed(*ev.FrameBlock)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				gotFrames = append(gotFrames, f)
			}
		}
	}
	if len(gotMem) != 1 || !bytes.Equal(gotMem[0].Body, mem.Body) {
		t.Fatalf("memory messages: %d", len(gotMem))
	}
	if gotNotify != 1 || gotGrant != 1 {
		t.Fatalf("notify=%d grant=%d", gotNotify, gotGrant)
	}
	if len(gotFrames) != 1 || !bytes.Equal(gotFrames[0], frame) {
		t.Fatalf("frames: %d", len(gotFrames))
	}
}

func TestRxDemuxErrors(t *testing.T) {
	var d RxDemux
	if _, err := d.Feed(ControlBlock(BTMemTerm, []byte{1})); !errors.Is(err, ErrMemUnexpected) {
		t.Errorf("/MT/ outside: %v", err)
	}
	d = RxDemux{}
	if _, err := d.Feed(ControlBlock(BTMemStart, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Feed(ControlBlock(BTMemStart, nil)); !errors.Is(err, ErrMemUnexpected) {
		t.Errorf("double /MS/: %v", err)
	}
	d = RxDemux{}
	_, _ = d.Feed(ControlBlock(BTMemStart, nil))
	_, _ = d.Feed(DataBlock(make([]byte, 8)))
	if _, err := d.Feed(ControlBlock(BTMemTerm, []byte{9})); !errors.Is(err, ErrMemBadTerm) {
		t.Errorf("bad term count: %v", err)
	}
	// Frames may not interrupt a memory message.
	d = RxDemux{}
	_, _ = d.Feed(ControlBlock(BTMemStart, nil))
	if _, err := d.Feed(StartBlock(nil)); !errors.Is(err, ErrMemUnexpected) {
		t.Errorf("/S/ inside memory message: %v", err)
	}
}

func TestMemMsgRoundTripProperty(t *testing.T) {
	f := func(hdr [MemHeaderBytes]byte, body []byte) bool {
		in := MemMsg{Header: hdr, Body: body}
		out, n, err := demux(in.Encode())
		if err != nil || n != in.WireBlocks() {
			return false
		}
		return out.Header == in.Header && bytes.Equal(out.Body, in.Body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: wire size is minimal and monotone.
func TestMemMsgWireBlocksProperty(t *testing.T) {
	f := func(n uint16) bool {
		w := MemMsgWireBlocks(int(n))
		if n == 0 {
			return w == 1
		}
		// bracket blocks + ceil(n/8) data blocks
		want := 2 + (int(n)+7)/8
		return w == want && w >= MemMsgWireBlocks(int(n)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
