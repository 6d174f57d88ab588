package phy

import (
	"bytes"
	"testing"
)

// drive pushes all frame blocks through the mux (respecting back-pressure)
// alongside preloaded memory blocks, and returns the emitted sequence with
// sources.
func drive(m *TxMux, frameBlocks []Block, cycles int) ([]Block, []Source) {
	var out []Block
	var srcs []Source
	next := 0
	for c := 0; c < cycles; c++ {
		for next < len(frameBlocks) && m.EnqueueFrame(frameBlocks[next]) {
			next++
		}
		b, s := m.Next()
		out = append(out, b)
		srcs = append(srcs, s)
	}
	return out, srcs
}

func TestTxMuxIdleWhenEmpty(t *testing.T) {
	m := NewTxMux(PolicyFair)
	b, s := m.Next()
	if s != SrcIdle || !b.IsIdle() {
		t.Fatalf("empty mux emitted %v/%v", b, s)
	}
}

func TestTxMuxPreemptsFrame(t *testing.T) {
	// A memory message arriving mid-frame must not wait for the frame end.
	m := NewTxMux(PolicyFair)
	frame := FrameToBlocks(bytes.Repeat([]byte{1}, 1500)) // 189 blocks
	mem := mkMsg(3, []byte{9, 9, 9, 9, 9, 9, 9, 9}).Encode()

	// Emit a few frame blocks first, then the memory message arrives.
	for i := 0; i < 4; i++ {
		m.EnqueueFrame(frame[i])
	}
	for i := 0; i < 3; i++ {
		m.Next()
	}
	m.EnqueueMemory(mem...)
	// With fair policy the memory message must complete within
	// 2*len(mem) cycles of arrival, far before the 189-block frame would
	// have ended.
	deadline := 2*len(mem) + 2
	done := false
	feed := 4
	for c := 0; c < deadline; c++ {
		if feed < len(frame) && m.EnqueueFrame(frame[feed]) {
			feed++
		}
		b, s := m.Next()
		if s == SrcMemory && b.IsControl() && b.Type() == BTMemTerm {
			done = true
			break
		}
	}
	if !done {
		t.Fatal("memory message did not preempt the frame in time")
	}
}

func TestTxMuxNoPreemptionWithFrameFirst(t *testing.T) {
	// PolicyFrameFirst reproduces the MAC behaviour: memory waits for the
	// entire frame.
	m := NewTxMux(PolicyFrameFirst)
	frame := FrameToBlocks(bytes.Repeat([]byte{1}, 256))
	mem := mkMsg(3, nil).Encode()
	m.EnqueueMemory(mem...)
	_, srcs := drive(m, frame, len(frame)+len(mem))
	// Memory must appear only after every frame block.
	sawMem := false
	framesAfterMem := 0
	for _, s := range srcs {
		if s == SrcMemory {
			sawMem = true
		}
		if sawMem && s == SrcFrame {
			framesAfterMem++
		}
	}
	if !sawMem {
		t.Fatal("memory never emitted")
	}
	if framesAfterMem > 0 {
		t.Fatalf("%d frame blocks after memory under FrameFirst", framesAfterMem)
	}
}

func TestTxMuxMemoryMessageAtomic(t *testing.T) {
	// Once /MS/ is emitted, no frame block may appear before /MT/.
	m := NewTxMux(PolicyFair)
	frame := FrameToBlocks(bytes.Repeat([]byte{1}, 512))
	mem := mkMsg(3, make([]byte, 64)).Encode()
	m.EnqueueMemory(mem...)
	out, srcs := drive(m, frame, len(frame)+len(mem)+8)
	inMsg := false
	for i, b := range out {
		if srcs[i] == SrcMemory && b.IsControl() {
			switch b.Type() {
			case BTMemStart:
				inMsg = true
			case BTMemTerm:
				inMsg = false
			}
			continue
		}
		if inMsg && srcs[i] != SrcMemory {
			t.Fatalf("block %d (%v) interleaved inside memory message", i, out[i])
		}
	}
}

func TestTxMuxFairAlternates(t *testing.T) {
	// With both queues saturated with single-block items, fair policy
	// should give each stream about half the cycles.
	m := NewTxMux(PolicyFair)
	for i := 0; i < 50; i++ {
		m.EnqueueMemory(mkMsg(1, nil).Encode()...) // /MST/ singles
	}
	frame := FrameToBlocks(bytes.Repeat([]byte{1}, 792)) // 101 blocks
	_, srcs := drive(m, frame, 100)
	var memCount, frameCount int
	for _, s := range srcs {
		switch s {
		case SrcMemory:
			memCount++
		case SrcFrame:
			frameCount++
		}
	}
	if memCount < 45 || frameCount < 45 {
		t.Fatalf("fair mux skewed: mem=%d frame=%d", memCount, frameCount)
	}
}

func TestTxMuxRepurposesIFG(t *testing.T) {
	// With no frame traffic, memory blocks flow back-to-back in what would
	// otherwise be idle (IFG) cycles: zero idles while memory is queued.
	m := NewTxMux(PolicyFair)
	for i := 0; i < 10; i++ {
		m.EnqueueMemory(mkMsg(byte(i), nil).Encode()...)
	}
	for i := 0; i < 10; i++ {
		_, s := m.Next()
		if s != SrcMemory {
			t.Fatalf("cycle %d: %v, want memory", i, s)
		}
	}
	if m.Emitted(SrcIdle) != 0 {
		t.Fatal("idles emitted while memory queued")
	}
}

func TestTxMuxBackPressure(t *testing.T) {
	m := NewTxMux(PolicyFair)
	b := IdleBlock()
	for i := 0; i < DefaultFrameBufferBlocks; i++ {
		if !m.EnqueueFrame(b) {
			t.Fatalf("enqueue %d rejected before buffer full", i)
		}
	}
	if m.EnqueueFrame(b) {
		t.Fatal("enqueue accepted beyond buffer bound")
	}
	m.Next()
	if !m.EnqueueFrame(b) {
		t.Fatal("enqueue rejected after drain")
	}
}

func TestRxReorderBuffer(t *testing.T) {
	var r RxReorderBuffer
	frame := bytes.Repeat([]byte{0x77}, 128)
	blocks := FrameToBlocks(frame)
	var released []Block
	// Feed with idle gaps simulating preemption holes.
	for i, b := range blocks {
		if i%3 == 0 {
			if out, done := r.Feed(IdleBlock()); done || (i == 0 && out != nil) {
				t.Fatal("idle between frames released blocks")
			}
		}
		out, done := r.Feed(b)
		if done {
			released = out
		}
	}
	if released == nil {
		t.Fatal("frame never released")
	}
	got, _, err := blocksToFrame(released)
	if err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("reordered frame corrupt: %v", err)
	}
	if r.Pending() != 0 {
		t.Fatalf("Pending = %d after release", r.Pending())
	}
}

func TestMuxDemuxEndToEnd(t *testing.T) {
	// Full path: TX mux interleaves a frame and memory messages; the RX
	// demux plus reorder buffer plus frame decoder must recover both
	// streams intact. This is the paper's Figure 3 data path in software.
	tx := NewTxMux(PolicyFair)
	frame := bytes.Repeat([]byte{0xe5}, 700)
	frameBlocks := FrameToBlocks(frame)
	var msgs []MemMsg
	for i := 0; i < 5; i++ {
		msgs = append(msgs, mkMsg(byte(i), bytes.Repeat([]byte{byte(i + 1)}, 24)))
	}
	for _, mm := range msgs {
		tx.EnqueueMemory(mm.Encode()...)
	}

	var rx RxDemux
	var rb RxReorderBuffer
	var fd FrameDecoder
	var gotMsgs []MemMsg
	var gotFrame []byte

	next := 0
	cycles := len(frameBlocks) + 5*msgs[0].WireBlocks() + 32
	for c := 0; c < cycles; c++ {
		for next < len(frameBlocks) && tx.EnqueueFrame(frameBlocks[next]) {
			next++
		}
		b, _ := tx.Next()
		ev, err := rx.Feed(b)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Msg != nil {
			gotMsgs = append(gotMsgs, *ev.Msg)
		}
		fb := IdleBlock()
		if ev.FrameBlock != nil {
			fb = *ev.FrameBlock
		}
		if rel, done := rb.Feed(fb); done {
			for _, rbk := range rel {
				f, fdone, err := fd.Feed(rbk)
				if err != nil {
					t.Fatal(err)
				}
				if fdone {
					gotFrame = f
				}
			}
		}
	}
	if len(gotMsgs) != len(msgs) {
		t.Fatalf("got %d memory messages, want %d", len(gotMsgs), len(msgs))
	}
	for i, mm := range gotMsgs {
		if !bytes.Equal(mm.Body, msgs[i].Body) {
			t.Errorf("message %d body mismatch", i)
		}
	}
	if !bytes.Equal(gotFrame, frame) {
		t.Fatal("frame corrupted through mux/demux path")
	}
}

func TestTxMuxMemoryFirstStarvesFrames(t *testing.T) {
	// Strict memory priority: while memory blocks are queued, no frame
	// block is emitted.
	m := NewTxMux(PolicyMemoryFirst)
	for i := 0; i < 20; i++ {
		m.EnqueueMemory(mkMsg(byte(i), nil).Encode()...)
	}
	frame := FrameToBlocks(bytes.Repeat([]byte{1}, 64))
	for _, b := range frame[:DefaultFrameBufferBlocks] {
		m.EnqueueFrame(b)
	}
	for i := 0; i < 20; i++ {
		_, s := m.Next()
		if s != SrcMemory {
			t.Fatalf("emission %d was %v under MemoryFirst", i, s)
		}
	}
	if _, s := m.Next(); s != SrcFrame {
		t.Fatalf("frames not served after memory drained: %v", s)
	}
}

func TestTxMuxEmittedAccounting(t *testing.T) {
	m := NewTxMux(PolicyFair)
	m.EnqueueMemory(mkMsg(1, nil).Encode()...)
	m.Next() // memory
	m.Next() // idle
	if m.Emitted(SrcMemory) != 1 || m.Emitted(SrcIdle) != 1 || m.Emitted(SrcFrame) != 0 {
		t.Fatalf("emitted counts: mem=%d idle=%d frame=%d",
			m.Emitted(SrcMemory), m.Emitted(SrcIdle), m.Emitted(SrcFrame))
	}
}
