package phy

// MuxPolicy selects how the TX mux arbitrates between memory blocks and
// non-memory (Ethernet frame) blocks.
type MuxPolicy int

const (
	// PolicyFair alternates between the memory and frame streams at block
	// granularity when both have data — the paper's default (§3.2.3).
	PolicyFair MuxPolicy = iota
	// PolicyMemoryFirst strictly prioritizes memory blocks.
	PolicyMemoryFirst
	// PolicyFrameFirst strictly prioritizes frame blocks; with this policy a
	// memory message waits for the whole frame, reproducing the MAC-layer
	// no-preemption behaviour of conventional Ethernet (used as an ablation
	// baseline).
	PolicyFrameFirst
)

// Source labels where an emitted block came from, for bandwidth accounting.
type Source int

const (
	SrcIdle Source = iota
	SrcFrame
	SrcMemory
)

// String implements fmt.Stringer for test failure readability.
func (s Source) String() string {
	switch s {
	case SrcIdle:
		return "idle"
	case SrcFrame:
		return "frame"
	case SrcMemory:
		return "memory"
	}
	return "?"
}

// DefaultFrameBufferBlocks is the TX-side non-memory buffer bound: beyond
// it EnqueueFrame refuses a block, so the caller can model MAC
// back-pressure. The paper bounds it to 4 blocks that way (§3.2.3).
const DefaultFrameBufferBlocks = 4

// TxMux is EDM's intra-frame preemption multiplexer. It sits at the output
// of the PCS encoder and interleaves memory blocks (/N/, /G/, /M*/) with the
// encoder's frame blocks at 66-bit granularity, so a small memory message
// never waits behind a large Ethernet frame. One invariant is enforced: a
// memory message in flight (/MS/ seen, /MT/ not yet) is never interrupted by
// frame blocks, because data blocks inside the bracket are interpreted as
// memory data by the receiver.
//
// Call Next once per PCS cycle; it emits an idle block when it has nothing
// to send (forming the inter-frame gap, which memory traffic may repurpose).
type TxMux struct {
	Policy MuxPolicy

	frameQ   []Block
	memQ     []Block
	inMemMsg bool // mid /MS/../MT/: memory holds the line
	lastMem  bool // last non-idle emission was a memory block (for fairness)

	emitted map[Source]int
}

// NewTxMux returns a mux with the given policy.
func NewTxMux(policy MuxPolicy) *TxMux {
	return &TxMux{Policy: policy, emitted: make(map[Source]int)}
}

// EnqueueFrame offers one frame block. It reports false when the TX buffer
// is full, in which case the caller must retry later (MAC back-pressure).
func (m *TxMux) EnqueueFrame(b Block) bool {
	if len(m.frameQ) >= DefaultFrameBufferBlocks {
		return false
	}
	m.frameQ = append(m.frameQ, b)
	return true
}

// EnqueueMemory appends memory blocks (a whole encoded message, or a single
// /N/ or /G/ block). Memory queueing is not bounded here: the scheduler's
// grant mechanism already bounds outstanding memory data.
func (m *TxMux) EnqueueMemory(blocks ...Block) {
	m.memQ = append(m.memQ, blocks...)
}

// FrameBacklog reports queued frame blocks.
func (m *TxMux) FrameBacklog() int { return len(m.frameQ) }

// MemoryBacklog reports queued memory blocks.
func (m *TxMux) MemoryBacklog() int { return len(m.memQ) }

// Emitted reports how many blocks of each source have been emitted.
func (m *TxMux) Emitted(s Source) int { return m.emitted[s] }

// Next emits the block for the current cycle.
func (m *TxMux) Next() (Block, Source) {
	b, s := m.pick()
	m.emitted[s]++
	return b, s
}

func (m *TxMux) pick() (Block, Source) {
	memReady := len(m.memQ) > 0
	frameReady := len(m.frameQ) > 0
	switch {
	case !memReady && !frameReady:
		return IdleBlock(), SrcIdle
	case memReady && (!frameReady || m.chooseMemory()):
		return m.popMemory(), SrcMemory
	default:
		return m.popFrame(), SrcFrame
	}
}

// chooseMemory decides the memory-vs-frame conflict when both queues have
// blocks ready.
func (m *TxMux) chooseMemory() bool {
	if m.inMemMsg {
		return true // never interrupt a memory message
	}
	switch m.Policy {
	case PolicyMemoryFirst:
		return true
	case PolicyFrameFirst:
		return false
	default: // PolicyFair: alternate
		return !m.lastMem
	}
}

func (m *TxMux) popMemory() Block {
	b := m.memQ[0]
	m.memQ = m.memQ[1:]
	if b.IsControl() {
		switch b.Type() {
		case BTMemStart:
			m.inMemMsg = true
		case BTMemTerm:
			m.inMemMsg = false
		}
	}
	m.lastMem = true
	return b
}

func (m *TxMux) popFrame() Block {
	b := m.frameQ[0]
	m.frameQ = m.frameQ[1:]
	m.lastMem = false
	return b
}

// RxReorderBuffer is the receive-side companion of TxMux (§3.2.3): because
// preemption makes a frame's blocks arrive in non-consecutive cycles, EDM
// buffers them until the frame's /T/ block and then releases the whole frame
// to the decoder in consecutive cycles. Latency cost: the transmission delay
// of the frame itself, which the caller models.
type RxReorderBuffer struct {
	buf []Block
}

// Feed adds one frame-stream block (post-demux). When the frame completes it
// returns the frame's full block sequence ready for a FrameDecoder.
func (r *RxReorderBuffer) Feed(b Block) ([]Block, bool) {
	if b.IsControl() && b.Type() == BTIdle {
		// Idles are never part of a frame: between frames they are the IFG,
		// and mid-frame they are the holes left by preempting memory blocks.
		return nil, false
	}
	r.buf = append(r.buf, b)
	if b.IsControl() {
		if _, isTerm := TermBytes(b.Type()); isTerm {
			out := make([]Block, len(r.buf))
			copy(out, r.buf)
			r.buf = r.buf[:0]
			return out, true
		}
	}
	return nil, false
}

// Pending reports buffered blocks of the in-progress frame.
func (r *RxReorderBuffer) Pending() int { return len(r.buf) }
