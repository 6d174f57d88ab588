package phy

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// blocksToFrame feeds blocks through a FrameDecoder, one per cycle as a
// receiver would, and returns the first frame it completes with the number
// of blocks fed up to and including its /T/.
func blocksToFrame(blocks []Block) ([]byte, int, error) {
	var d FrameDecoder
	for i, b := range blocks {
		frame, done, err := d.Feed(b)
		if err != nil {
			return nil, i, err
		}
		if done {
			return frame, i + 1, nil
		}
	}
	return nil, len(blocks), errors.New("no frame completed")
}

func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{64, 65, 71, 72, 100, 1500, 9000} {
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(i * 7)
		}
		blocks := FrameToBlocks(frame)
		if want := 2 + n/BlockPayloadBytes; len(blocks) != want {
			t.Errorf("n=%d: %d blocks, want %d", n, len(blocks), want)
		}
		got, consumed, err := blocksToFrame(blocks)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if consumed != len(blocks) {
			t.Errorf("n=%d: consumed %d of %d", n, consumed, len(blocks))
		}
		if !bytes.Equal(got, frame) {
			t.Errorf("n=%d: frame mismatch", n)
		}
	}
}

func TestMinFrameBlockCount(t *testing.T) {
	// A 64 B minimum Ethernet frame spans /S/ + 8x/D/ + /T0/ = 10 blocks.
	// The MAC layer cannot go below this; an EDM memory message can be a
	// single block (see memmsg tests) — the heart of limitation 1 vs D1.
	if got := len(FrameToBlocks(make([]byte, 64))); got != 10 {
		t.Fatalf("64 B frame = %d blocks, want 10", got)
	}
}

func TestBlocksToFrameSkipsIdles(t *testing.T) {
	frame := make([]byte, 64)
	blocks := append([]Block{IdleBlock(), IdleBlock()}, FrameToBlocks(frame)...)
	got, consumed, err := blocksToFrame(blocks)
	if err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("decode with leading idles: %v", err)
	}
	if consumed != len(blocks) {
		t.Fatalf("consumed %d, want %d", consumed, len(blocks))
	}
}

func TestFrameDecoderStreaming(t *testing.T) {
	var d FrameDecoder
	f1 := bytes.Repeat([]byte{0xab}, 64)
	f2 := bytes.Repeat([]byte{0xcd}, 127)
	var got [][]byte
	stream := append(FrameToBlocks(f1), IdleBlock(), IdleBlock())
	stream = append(stream, FrameToBlocks(f2)...)
	for _, b := range stream {
		frame, done, err := d.Feed(b)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			got = append(got, frame)
		}
	}
	if len(got) != 2 || !bytes.Equal(got[0], f1) || !bytes.Equal(got[1], f2) {
		t.Fatalf("streaming decode failed: %d frames", len(got))
	}
	if d.InFrame() {
		t.Error("decoder left mid-frame")
	}
}

func TestFrameDecoderErrors(t *testing.T) {
	var d FrameDecoder
	if _, _, err := d.Feed(DataBlock(make([]byte, 8))); !errors.Is(err, ErrStrayData) {
		t.Errorf("stray data: %v", err)
	}
	if _, _, err := d.Feed(ControlBlock(BTTerm0, nil)); err == nil {
		t.Error("stray /T/ accepted")
	}
	if _, _, err := d.Feed(ControlBlock(BTNotify, nil)); !errors.Is(err, ErrMemoryInFrame) {
		t.Errorf("memory block: %v", err)
	}
	if _, _, err := d.Feed(StartBlock(nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Feed(StartBlock(nil)); err == nil {
		t.Error("/S/ inside frame accepted")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(body []byte) bool {
		frame := append(make([]byte, 0, len(body)+64), bytes.Repeat([]byte{0}, 64)...)
		frame = append(frame, body...)
		got, _, err := blocksToFrame(FrameToBlocks(frame))
		return err == nil && bytes.Equal(got, frame)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
