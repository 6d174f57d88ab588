package edm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/memctl"
	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Client-visible errors.
var (
	ErrTimeout    = errors.New("edm: read timed out (NULL response)")
	ErrTooManyOut = errors.New("edm: too many outstanding operations to destination")
)

// ReadCallback delivers a read/RMW result. On timeout data is nil and err is
// ErrTimeout — the paper's NULL (zero size) response (§3.3).
type ReadCallback func(data []byte, err error)

// WriteCallback fires when the write has been applied at the remote memory
// controller. EDM writes are one-sided (no acknowledgement on the wire);
// the fabric invokes this through simulation state for measurement.
type WriteCallback func(err error)

type skey struct {
	peer int // remote port
	id   uint8
}

// idParity is the direction bit of the split message-ID space: reads and
// RMWs (whose data flows dst->src) take odd IDs, writes even. See submit.
func idParity(k Kind) uint8 {
	if k == KindRREQ || k == KindRMW {
		return 1
	}
	return 0
}

// sendState is one message-state-table entry on the TX side: a granted
// message whose chunks are being sent.
type sendState struct {
	msg   *Message
	body  []byte
	sent  int
	ready bool // RRES data read from memory; WREQ is always ready
}

// writeState is the in-flight marker of an issued write, from submit until
// the remote apply ack (or the post-send quarantine) clears it.
type writeState struct {
	cb WriteCallback
}

// readState tracks an outstanding RREQ/RMWREQ at the compute node.
type readState struct {
	cb       ReadCallback
	done     bool
	deadline sim.Time
}

// rxState reassembles a chunked inbound WREQ/RRES.
type rxState struct {
	kind Kind
	buf  []byte
	got  int
}

// grantItem is one entry in the grant queue, which crosses the RX and TX
// clock domains.
type grantItem struct {
	key      skey
	chunk    int
	implicit bool // first RRES chunk: granted by the forwarded RREQ itself
}

// HostStats counts host-level events.
type HostStats struct {
	ReadsIssued   uint64
	WritesIssued  uint64
	ReadsDone     uint64
	WritesDone    uint64
	Timeouts      uint64
	RxErrors      uint64
	MemBlocksTX   uint64
	FrameBlocksTX uint64
}

// Host is EDM's NIC-resident network stack (Figure 3b): the message queue,
// message state table, grant queue and data buffers on the TX side, and the
// demux, reorder buffer and reassembly state on the RX side. A Host with an
// attached memctl.Controller acts as a memory node; any host can issue
// remote reads/writes (compute role).
type Host struct {
	engine *sim.Engine
	port   int
	mem    *memctl.Controller
	link   *Link // toward the switch
	mux    *phy.TxMux
	demux  phy.RxDemux
	rb     phy.RxReorderBuffer
	fd     phy.FrameDecoder

	msgQ     []*Message
	waitQ    map[int][]*Message // per-destination holdback beyond X
	active   map[int]int        // active notifications per destination
	nextID   map[int]uint8
	sendTab  map[skey]*sendState
	readTab  map[skey]*readState
	rxTab    map[skey]*rxState
	writeCBs map[skey]*writeState

	grantQ    []grantItem
	grantBusy bool
	msgBusy   bool
	pumpBusy  bool

	frameBacklog [][]byte // frames waiting for mux space (MAC back-pressure)
	framePos     int      // next block within frameBacklog[0]
	frameBlocks  []phy.Block

	// OnFrame receives completed non-memory Ethernet frames.
	OnFrame func([]byte)
	// onWriteApplied is wired by the Fabric: invoked at the memory node
	// when a WREQ has been applied, to fire the writer's callback.
	onWriteApplied func(srcPort int, id uint8)

	stats HostStats
}

func newHost(engine *sim.Engine, policy phy.MuxPolicy, port int, link *Link) *Host {
	h := &Host{
		engine:   engine,
		port:     port,
		link:     link,
		mux:      phy.NewTxMux(policy),
		waitQ:    make(map[int][]*Message),
		active:   make(map[int]int),
		nextID:   make(map[int]uint8),
		sendTab:  make(map[skey]*sendState),
		readTab:  make(map[skey]*readState),
		rxTab:    make(map[skey]*rxState),
		writeCBs: make(map[skey]*writeState),
	}
	return h
}

// Port reports the host's switch port number.
func (h *Host) Port() int { return h.port }

// Stats returns a copy of the host's counters.
func (h *Host) Stats() HostStats { return h.stats }

// Memory returns the attached memory controller, if any.
func (h *Host) Memory() *memctl.Controller { return h.mem }

// cycles converts pipeline cycles to time.
func (h *Host) cycles(n int) sim.Time { return sim.Time(n) * BlockPeriod }

// Read issues a remote read of n bytes at addr on the memory node at port
// dst. cb fires with the data, or with ErrTimeout after the read deadline.
func (h *Host) Read(dst int, addr uint64, n int, cb ReadCallback) {
	h.stats.ReadsIssued++
	m := &Message{Kind: KindRREQ, Src: h.port, Dst: dst, Addr: addr, Len: uint32(n)}
	h.submit(m, cb, nil)
}

// Write issues a remote write. cb fires when the remote memory controller
// has applied the data.
func (h *Host) Write(dst int, addr uint64, data []byte, cb WriteCallback) {
	h.stats.WritesIssued++
	m := &Message{Kind: KindWREQ, Src: h.port, Dst: dst, Addr: addr,
		Len: uint32(len(data)), Data: append([]byte(nil), data...)}
	h.submit(m, nil, cb)
}

// RMW issues an atomic read-modify-write; cb receives the 8-byte result
// (for CAS: 1 on success, 0 on failure; otherwise the previous value).
func (h *Host) RMW(dst int, addr uint64, op memctl.RMWOp, args []uint64, cb ReadCallback) {
	m := &Message{Kind: KindRMW, Src: h.port, Dst: dst, Addr: addr,
		Op: op, Args: append([]uint64(nil), args...)}
	h.submit(m, cb, nil)
}

// SendFrame transmits a non-memory Ethernet frame (already MAC-framed).
// Frames share the link with memory traffic through the preemption mux.
func (h *Host) SendFrame(frame []byte) {
	h.frameBacklog = append(h.frameBacklog, frame)
	h.kickPump()
}

// submit assigns an id and either activates the message or holds it back:
// a host keeps at most X = sched.DefaultMaxActivePerPair active
// notifications per destination, reads and writes together (§3.1.2). This
// window is the fabric's only X bound (sched.Scheduler.Notify).
//
// The ID space is split by direction: writes take even IDs, reads (and
// RMWs) odd. A read's response travels the reverse pair — this host's read
// from dst creates scheduler demand and send-table state for (dst -> this
// host), the same pair dst's own writes to this host use — and the two
// ID counters live at different hosts, so a shared per-destination
// sequence collides: the scheduler rejects the demand as a duplicate ID
// and the memory node's send table entry overwrites the write's. Parity
// keeps the two allocators disjoint with no wire-format change.
func (h *Host) submit(m *Message, rcb ReadCallback, wcb WriteCallback) {
	m.ID = h.nextID[m.Dst]<<1 | idParity(m.Kind)
	h.nextID[m.Dst]++
	key := skey{m.Dst, m.ID}
	// The 7-bit counter wraps after 128 submissions to one destination; if
	// the op that used this ID is still in flight, reusing the key would
	// silently cross their state (stolen callbacks, spurious timeouts).
	// Fail the new op instead — reaching here means >127 ops outstanding
	// to one node, far past the X=3 pacing window: the caller is
	// overdriving the fabric. The check is per direction: a read's
	// in-flight window is its readTab entry; a write's is its callback or
	// send-table entry. (sendTab also holds RRES entries served for the
	// peer's reads under the peer's odd IDs, which a new read's odd ID can
	// legitimately coincide with — those are not collisions.)
	busy := false
	switch m.Kind {
	case KindRREQ, KindRMW:
		_, busy = h.readTab[key]
	default:
		if _, ok := h.writeCBs[key]; ok {
			busy = true
		} else if _, ok := h.sendTab[key]; ok {
			busy = true
		}
	}
	if busy {
		if rcb != nil {
			rcb(nil, ErrTooManyOut)
		}
		if wcb != nil {
			wcb(ErrTooManyOut)
		}
		return
	}
	switch m.Kind {
	case KindRREQ, KindRMW:
		rs := &readState{cb: rcb, deadline: h.engine.Now() + ReadTimeout}
		h.readTab[key] = rs
		h.engine.After(ReadTimeout, func() { h.timeout(key) })
	case KindWREQ:
		// Register even a nil callback: the entry doubles as the write's
		// in-flight marker for the ID-reuse guard above (the sendTab
		// entry only appears later, at the message pump).
		h.writeCBs[key] = &writeState{cb: wcb}
	}
	if h.active[m.Dst] >= sched.DefaultMaxActivePerPair {
		h.waitQ[m.Dst] = append(h.waitQ[m.Dst], m)
		return
	}
	h.activate(m)
}

func (h *Host) activate(m *Message) {
	h.active[m.Dst]++
	h.msgQ = append(h.msgQ, m)
	h.kickMsgPump()
}

// release frees one notification slot for dst and activates a waiter.
func (h *Host) release(dst int) {
	h.active[dst]--
	if q := h.waitQ[dst]; len(q) > 0 {
		m := q[0]
		h.waitQ[dst] = q[1:]
		h.activate(m)
	}
}

// timeout fires the NULL response for a read that never completed.
func (h *Host) timeout(key skey) {
	rs, ok := h.readTab[key]
	if !ok || rs.done {
		return
	}
	if h.engine.Now() < rs.deadline {
		// Stale timer from an earlier read whose key was freed and reused
		// after the 7-bit ID wrap; the current read's own timer is still
		// pending and will fire at its deadline.
		return
	}
	rs.done = true
	// The entry is quarantined rather than deleted: the memory node may
	// still hold send state and a queued grant for this key (e.g. blocked
	// behind a dead link), which the issuing host cannot observe. Keeping
	// the done entry makes submit's ID-reuse guard treat the key as busy,
	// so a wrapped counter cannot cross a new read with the stale remote
	// state. A late RRES frees it early (completeRead); otherwise a
	// second timeout period bounds the quarantine — by then any remote
	// state has drained (a blocked memory node keeps pumping chunks into
	// the dead link, which drops them), so the ID never wedges
	// permanently when the RREQ itself was lost.
	h.engine.After(ReadTimeout, func() {
		if cur, ok := h.readTab[key]; ok && cur == rs {
			delete(h.readTab, key)
		}
	})
	h.release(key.peer)
	h.stats.Timeouts++
	if rs.cb != nil {
		rs.cb(nil, ErrTimeout)
	}
}

// kickMsgPump starts the TX message-queue pump (Figure 3b: "EDM
// continuously dequeues messages from the message queue").
func (h *Host) kickMsgPump() {
	if h.msgBusy {
		return
	}
	h.msgBusy = true
	h.msgPumpStep()
}

func (h *Host) msgPumpStep() {
	if len(h.msgQ) == 0 {
		h.msgBusy = false
		return
	}
	m := h.msgQ[0]
	h.msgQ = h.msgQ[1:]
	switch m.Kind {
	case KindRREQ, KindRMW:
		h.engine.After(h.cycles(GenRequestCycles), func() {
			w, err := m.MarshalRREQ()
			if err != nil {
				panic(fmt.Sprintf("edm: marshal RREQ: %v", err))
			}
			h.mux.EnqueueMemory(w.Encode()...)
			h.kickPump()
			h.msgPumpStep()
		})
	case KindWREQ:
		h.engine.After(h.cycles(GenNotifyCycles), func() {
			body, err := m.Body()
			if err != nil {
				panic(fmt.Sprintf("edm: marshal WREQ: %v", err))
			}
			h.sendTab[skey{m.Dst, m.ID}] = &sendState{msg: m, body: body, ready: true}
			nb, err := Notification{Src: h.port, Dst: m.Dst, ID: m.ID, Size: uint32(len(body))}.PackNotify()
			if err != nil {
				panic(fmt.Sprintf("edm: pack notify: %v", err))
			}
			h.mux.EnqueueMemory(nb)
			h.kickPump()
			h.msgPumpStep()
		})
	default:
		panic("edm: unexpected kind in message queue")
	}
}

// kickPump starts the per-cycle block pump that drains the preemption mux
// onto the link.
func (h *Host) kickPump() {
	if h.pumpBusy {
		return
	}
	h.pumpBusy = true
	h.engine.After(BlockPeriod, h.pumpStep)
}

func (h *Host) pumpStep() {
	h.feedFrames()
	if h.mux.FrameBacklog()+h.mux.MemoryBacklog() == 0 {
		h.pumpBusy = false
		return
	}
	b, src := h.mux.Next()
	if src != phy.SrcIdle {
		h.link.Send(b)
		if src == phy.SrcMemory {
			h.stats.MemBlocksTX++
		} else {
			h.stats.FrameBlocksTX++
		}
	}
	h.engine.After(BlockPeriod, h.pumpStep)
}

// feedFrames moves pending frame blocks into the mux as back-pressure
// allows, encoding lazily.
func (h *Host) feedFrames() {
	for {
		if h.frameBlocks == nil {
			if len(h.frameBacklog) == 0 {
				return
			}
			h.frameBlocks = phy.FrameToBlocks(h.frameBacklog[0])
			h.frameBacklog = h.frameBacklog[1:]
			h.framePos = 0
		}
		for h.framePos < len(h.frameBlocks) {
			if !h.mux.EnqueueFrame(h.frameBlocks[h.framePos]) {
				return // MAC back-pressure
			}
			h.framePos++
		}
		h.frameBlocks = nil
	}
}

// receive is the link delivery callback: the PCS RX path.
func (h *Host) receive(b phy.Block) {
	ev, err := h.demux.Feed(b)
	if err != nil {
		// Corrupted or out-of-protocol block: the demux's protocol checks
		// caught it. Count it and resynchronize (§3.3).
		h.stats.RxErrors++
		h.demux = phy.RxDemux{}
		return
	}
	switch {
	case ev.Grant != nil:
		g := UnpackGrant(*ev.Grant)
		h.engine.After(h.cycles(RxGrantCycles), func() {
			h.grantQ = append(h.grantQ, grantItem{key: skey{g.Dst, g.ID}, chunk: int(g.Chunk)})
			h.kickGrants()
		})
	case ev.Notify != nil:
		// Hosts never receive /N/ blocks; tolerate and count.
		h.stats.RxErrors++
	case ev.Msg != nil:
		h.handleWireMsg(*ev.Msg)
	case ev.FrameBlock != nil:
		if blocks, done := h.rb.Feed(*ev.FrameBlock); done {
			for _, fb := range blocks {
				if frame, fdone, err := h.fd.Feed(fb); err != nil {
					h.stats.RxErrors++
					h.fd = phy.FrameDecoder{}
				} else if fdone && h.OnFrame != nil {
					h.OnFrame(frame)
				}
			}
		}
	}
}

// handleWireMsg dispatches a completed inbound memory message.
func (h *Host) handleWireMsg(w phy.MemMsg) {
	kind, src, _, id, size, cont := PeekHeader(w)
	switch kind {
	case KindRREQ, KindRMW:
		h.handleRequest(w)
	case KindWREQ, KindRRES:
		h.handleDataChunk(kind, src, id, size, cont, w.Body)
	default:
		h.stats.RxErrors++
	}
}

// handleRequest serves an RREQ/RMWREQ at the memory node. Its arrival via
// the switch is the implicit grant for the first RRES chunk (§3.1.4).
func (h *Host) handleRequest(w phy.MemMsg) {
	req, demand, err := UnmarshalRREQ(w)
	if err != nil {
		h.stats.RxErrors++
		return
	}
	if h.mem == nil {
		// Not a memory node: drop; the requester will receive a NULL
		// response via its timeout.
		h.stats.RxErrors++
		return
	}
	key := skey{req.Src, req.ID}
	res := &Message{Kind: KindRRES, Src: h.port, Dst: req.Src, ID: req.ID}
	st := &sendState{msg: res}
	h.sendTab[key] = st
	firstChunk := demand
	if firstChunk > ChunkBytes {
		firstChunk = ChunkBytes
	}
	h.engine.After(h.cycles(RxReqToMemCycles), func() {
		// The forwarded RREQ *is* the first grant. It must take its grant-
		// queue slot now, in arrival order: the switch's circuit FIFO maps
		// this port's outgoing chunks to egresses in grant-issue order, so
		// chunks must leave in exactly that order. If the DRAM read is
		// still in flight when this entry reaches the queue head, the
		// queue waits (st.ready gates the pump).
		h.grantQ = append(h.grantQ, grantItem{key: key, chunk: firstChunk, implicit: true})
		var data []byte
		var lat sim.Time
		var err error
		switch req.Kind {
		case KindRREQ:
			data, lat, err = h.mem.Read(req.Addr, demand)
		case KindRMW:
			var result uint64
			result, lat, err = h.mem.RMW(req.Addr, req.Op, req.Args...)
			if err == nil {
				data = binary.LittleEndian.AppendUint64(nil, result)
			}
		}
		if err != nil {
			// Out-of-range access: the paper's fabric has no NACK; the
			// requester times out with a NULL response. The queued grant
			// stays and is discarded when it reaches the head (the state
			// table entry is gone), keeping circuit order intact... but a
			// missing sendTab entry would also desynchronize the switch's
			// circuit FIFO, so keep the entry and send a zero-filled
			// response of the demanded size instead.
			data = make([]byte, demand)
			lat = 0
		}
		h.engine.After(lat, func() {
			st.body = data
			st.ready = true
			h.kickGrants()
		})
	})
}

// kickGrants starts the grant-queue pump. Grants are served strictly in
// order; a grant whose RRES data is still being read from DRAM blocks the
// queue (chunks must leave in grant order so the switch's circuit FIFO
// stays aligned).
func (h *Host) kickGrants() {
	if h.grantBusy {
		return
	}
	h.grantBusy = true
	h.grantStep()
}

func (h *Host) grantStep() {
	if len(h.grantQ) == 0 {
		h.grantBusy = false
		return
	}
	g := h.grantQ[0]
	st, ok := h.sendTab[g.key]
	if !ok {
		// Grant for an unknown message (e.g. state dropped after memory
		// error): discard.
		h.grantQ = h.grantQ[1:]
		h.stats.RxErrors++
		h.engine.After(h.cycles(GrantReadCycles), h.grantStep)
		return
	}
	if !st.ready {
		// RRES data not back from DRAM yet: retry when it is (kickGrants
		// is called again on readiness).
		h.grantBusy = false
		return
	}
	h.grantQ = h.grantQ[1:]
	delay := GrantReadCycles
	if g.implicit {
		delay = 0 // implicit grant never sat in the grant queue
	}
	h.engine.After(h.cycles(delay)+h.cycles(GenDataCycles), func() {
		n := g.chunk
		if n > len(st.body)-st.sent {
			n = len(st.body) - st.sent
		}
		if n > 0 {
			w, err := st.msg.MarshalChunk(st.body, st.sent, n)
			if err != nil {
				panic(fmt.Sprintf("edm: marshal chunk: %v", err))
			}
			st.sent += n
			h.mux.EnqueueMemory(w.Encode()...)
			h.kickPump()
		}
		if st.sent == len(st.body) {
			delete(h.sendTab, g.key)
			if st.msg.Kind == KindWREQ {
				// All chunks granted and sent: free the notification slot.
				h.release(st.msg.Dst)
				// If the chunks were lost on a dead link the apply ack
				// never comes and the writeCBs marker would pin this ID
				// forever; quarantine it for one timeout period past the
				// last chunk, then free the ID (without firing the
				// callback — EDM writes are unacknowledged on the wire,
				// so a lost write is silent by design). Writes whose
				// NOTIFICATION was lost keep their marker: that pair is
				// wedged anyway (its window slots never free), and
				// fail-fast on reuse is the honest signal.
				key, ws := g.key, h.writeCBs[g.key]
				if ws != nil {
					h.engine.After(ReadTimeout, func() {
						if cur, ok := h.writeCBs[key]; ok && cur == ws {
							delete(h.writeCBs, key)
						}
					})
				}
			}
		}
		h.grantStep()
	})
}

// handleDataChunk reassembles inbound WREQ/RRES chunks and completes the
// operation when the message is whole.
func (h *Host) handleDataChunk(kind Kind, src int, id uint8, total int, cont bool, body []byte) {
	key := skey{src, id}
	rs, ok := h.rxTab[key]
	if !ok {
		if cont {
			h.stats.RxErrors++ // continuation without a first chunk
			return
		}
		rs = &rxState{kind: kind, buf: make([]byte, total)}
		h.rxTab[key] = rs
	}
	if rs.got+len(body) > len(rs.buf) {
		h.stats.RxErrors++
		delete(h.rxTab, key)
		return
	}
	copy(rs.buf[rs.got:], body)
	rs.got += len(body)
	if rs.got < len(rs.buf) {
		return
	}
	delete(h.rxTab, key)
	h.engine.After(h.cycles(RxDataCycles), func() {
		switch kind {
		case KindWREQ:
			h.applyWrite(src, id, rs.buf)
		case KindRRES:
			h.completeRead(key, rs.buf)
		}
	})
}

// applyWrite commits an inbound WREQ at the memory node.
func (h *Host) applyWrite(src int, id uint8, body []byte) {
	if h.mem == nil || len(body) < 8 {
		h.stats.RxErrors++
		return
	}
	lat, err := h.mem.Write(binary.LittleEndian.Uint64(body), body[8:])
	if err != nil {
		h.stats.RxErrors++
		return
	}
	h.engine.After(lat, func() {
		h.stats.WritesDone++
		if h.onWriteApplied != nil {
			h.onWriteApplied(src, id)
		}
	})
}

// completeRead fires the callback for a finished RREQ/RMWREQ.
func (h *Host) completeRead(key skey, data []byte) {
	rs, ok := h.readTab[key]
	if !ok {
		return
	}
	if rs.done {
		// Late response for a timed-out read: the remote state is now
		// drained, so the key becomes safe to reuse.
		delete(h.readTab, key)
		return
	}
	rs.done = true
	delete(h.readTab, key)
	h.release(key.peer)
	h.stats.ReadsDone++
	if rs.cb != nil {
		rs.cb(data, nil)
	}
}

// fireWriteApplied is invoked (via the fabric) on the writing host when its
// WREQ was applied remotely.
func (h *Host) fireWriteApplied(dst int, id uint8) {
	key := skey{dst, id}
	if ws, ok := h.writeCBs[key]; ok {
		delete(h.writeCBs, key)
		if ws.cb != nil {
			ws.cb(nil)
		}
	}
}
