//edmlint:allow walltime these tests wait on the real retransmission clock and goroutine hand-offs

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slotID builds the message ID of the seq-th use of a call slot.
func slotID(slot, seq uint32) uint32 { return seq&seqMask<<slotBits | slot }

// slotModel drives a Responder with requests built from a byte script and
// checks every outcome against a reference that knows, per call slot, the
// unwrapped use counter of the newest request and the bytes it was answered
// with: a (slot, seq) executes at most once, a duplicate is answered with
// the first answer's bytes, a stale or out-of-window request with nothing.
type slotModel struct {
	t        testing.TB
	r        *Responder
	metrics  *ResponderMetrics // r's
	pipe     *capturePipe
	window   uint32
	executed int // handler runs during the current Deliver
	serial   uint64
	newest   map[uint32]uint64 // slot -> unwrapped seq of its newest request
	answer   map[uint32][]byte // slot -> response datagram to that request
	want     responderCounts
}

func newSlotModel(t testing.TB, window int) *slotModel {
	m := &slotModel{t: t, pipe: &capturePipe{}, metrics: NewResponderMetrics(nil), newest: map[uint32]uint64{}, answer: map[uint32][]byte{}}
	m.r = NewResponder(m.pipe, ResponderConfig{Window: window, Metrics: m.metrics}, func(req, resp *Msg) {
		// The payload differs on every execution, so a re-execution cannot
		// pass for a replay.
		m.executed++
		m.serial++
		resp.Data = binary.LittleEndian.AppendUint64(resp.Data, m.serial)
	})
	m.window = uint32(m.r.window)
	return m
}

// deliver sends one request for the unwrapped seq of slot and checks what
// came back.
func (m *slotModel) deliver(slot uint32, seq uint64) {
	m.t.Helper()
	id := slotID(slot, uint32(seq))
	req, err := (&Msg{Kind: KindRMWREQ, ID: id, Op: 2, Args: []uint64{1}}).AppendEncode(nil)
	if err != nil {
		m.t.Fatal(err)
	}
	m.executed = 0
	before := len(m.pipe.sent)
	m.r.Deliver(req)
	sent := m.pipe.sent[before:]
	newest, used := m.newest[slot]
	switch {
	case slot >= m.window:
		m.want.Rejected++
		if m.executed != 0 || len(sent) != 0 {
			m.t.Fatalf("slot %d beyond window %d: executed %d, sent %d", slot, m.window, m.executed, len(sent))
		}
	case !used || seq > newest:
		m.want.Requests++
		if m.executed != 1 || len(sent) != 1 {
			m.t.Fatalf("fresh (slot %d, seq %d): executed %d times, %d datagrams", slot, seq, m.executed, len(sent))
		}
		var resp Msg
		if err := DecodeInto(&resp, sent[0]); err != nil || resp.ID != id || resp.Kind != KindRMWRESP {
			m.t.Fatalf("fresh (slot %d, seq %d): answered %+v (%v)", slot, seq, resp, err)
		}
		m.newest[slot], m.answer[slot] = seq, sent[0]
	case seq == newest:
		m.want.Duplicates++
		if m.executed != 0 || len(sent) != 1 || !bytes.Equal(sent[0], m.answer[slot]) {
			m.t.Fatalf("duplicate (slot %d, seq %d): executed %d times, %d datagrams, same bytes %v",
				slot, seq, m.executed, len(sent), len(sent) == 1 && bytes.Equal(sent[0], m.answer[slot]))
		}
	default:
		m.want.Stale++
		if m.executed != 0 || len(sent) != 0 {
			m.t.Fatalf("stale (slot %d, seq %d, newest %d): executed %d, sent %d", slot, seq, newest, m.executed, len(sent))
		}
	}
	if got := countsOf(m.metrics); got != m.want {
		m.t.Fatalf("after (slot %d, seq %d): stats %+v, want %+v", slot, seq, got, m.want)
	}
}

// run interprets script three bytes at a time: which slot (two beyond the
// window), what to send relative to the slot's newest request, how far. Every
// slot starts three uses before its counter wraps.
func (m *slotModel) run(script []byte) {
	const start = seqMask - 2
	for ; len(script) >= 3; script = script[3:] {
		slot := uint32(script[0]) % (m.window + 2)
		step := uint64(script[2])
		newest, used := m.newest[slot]
		if !used {
			m.deliver(slot, start)
			continue
		}
		switch script[1] % 6 {
		case 0, 1: // the slot's next use
			m.deliver(slot, newest+1)
		case 2: // a retransmission of the newest
			m.deliver(slot, newest)
		case 3: // a copy of a retired call, just behind or far behind
			if back := 1 + step*step*8; back <= newest-start {
				m.deliver(slot, newest-back)
			}
		case 4: // reordered: a use overtakes its predecessor
			m.deliver(slot, newest+2)
			m.deliver(slot, newest+1)
			m.deliver(slot, newest+2)
		case 5: // the client skipped uses (encode failures), up to the horizon
			jump := 1 + step*step*8
			if step == 255 {
				jump = seqMask/2 + 1
			}
			m.deliver(slot, newest+jump)
		}
	}
}

// TestResponderSlotModel runs seeded scripts through the model, on a small
// window and on the full one.
func TestResponderSlotModel(t *testing.T) {
	for _, window := range []int{1, 3, MaxSlots} {
		for seed := uint64(1); seed <= 8; seed++ {
			script := make([]byte, 3*2000)
			x := seed * 0x9e3779b97f4a7c15
			for i := range script {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				script[i] = byte(x >> 32)
			}
			m := newSlotModel(t, window)
			m.run(script)
			if m.want.Requests == 0 || m.want.Duplicates == 0 || m.want.Stale == 0 || m.want.Rejected == 0 && window < MaxSlots {
				t.Fatalf("window %d seed %d: script missed an outcome: %+v", window, seed, m.want)
			}
		}
	}
}

// TestResponderSequentialIDs: a sender that numbers requests 1, 2, 3, ... is
// a slot client too. Each executes once on a default Responder, round after
// round of the slot table, and a retransmission of a recent one replays.
func TestResponderSequentialIDs(t *testing.T) {
	m := newSlotModel(t, 0)
	for id := uint64(1); id <= 3*MaxSlots+17; id++ {
		m.deliver(uint32(id)&slotMask, id>>slotBits)
		if id%5 == 0 {
			m.deliver(uint32(id)&slotMask, id>>slotBits)
			m.deliver(uint32(id-3)&slotMask, (id-3)>>slotBits)
		}
	}
	if m.want.Stale != 0 || m.want.Rejected != 0 || m.want.Requests != 3*MaxSlots+17 {
		t.Fatalf("stats %+v", m.want)
	}
}

func FuzzResponderSlots(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 3, 0})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 3, 0, 1, 2, 0}) // across the wrap, then stale, then duplicate
	f.Add([]byte{2, 0, 0, 2, 4, 0, 2, 5, 255, 2, 3, 1, 4, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		newSlotModel(t, 3).run(script)
	})
}

// TestResponderRetainsOnePerSlot bounds the session's memory: a client with
// one call in flight uses one slot, and ten thousand 16 KiB reads leave the
// responder holding that slot's buffer, not one per recent request.
func TestResponderRetainsOnePerSlot(t *testing.T) {
	const size = 16384
	_, conn, r := pair(t, LoopbackConfig{}, ConnConfig{}, func(req, resp *Msg) {
		resp.Data = resp.Data[:req.Count]
		resp.Data[0], resp.Data[size-1] = byte(req.Addr), byte(req.Addr>>8)
	})
	for i := 0; i < 10000; i++ {
		ok := false
		if _, err := conn.CallC(&Msg{Kind: KindRREQ, Addr: uint64(i), Count: size}, CompletionFunc(func(m *Msg, err error) {
			ok = err == nil && len(m.Data) == size && m.Data[0] == byte(i) && m.Data[size-1] == byte(i>>8)
		})); err != nil || !ok {
			t.Fatalf("read %d: err %v, completed intact %v", i, err, ok)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := 0
	for _, s := range r.slots {
		if s.e != nil && cap(s.e.enc) >= size {
			held++
		}
	}
	for e := r.free; e != nil; e = e.next {
		if cap(e.enc) >= size {
			held++
		}
	}
	if held > 2 || len(r.slots) > 2 {
		t.Fatalf("session holds %d response buffers over %d slots after 10000 reads at window 1, want at most 2", held, len(r.slots))
	}
}

// handoffPipe is an asynchronous client->server transport: Send copies the
// datagram and delivers it on a goroutine of its own, like a socket.
type handoffPipe struct {
	deliver func([]byte)
	wg      sync.WaitGroup
}

func (p *handoffPipe) Send(b []byte) error {
	cp := append([]byte(nil), b...)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.deliver(cp)
	}()
	return nil
}

func (p *handoffPipe) Close() error { return nil }

// gatePipe is the server->client direction: synchronous, except that the
// response to one ID parks inside Send until released, and reports whether
// the bytes it was handed changed meanwhile.
type gatePipe struct {
	conn     *Conn
	hold     uint32
	entered  chan struct{}
	release  chan struct{}
	rewrote  atomic.Bool
	heldSend atomic.Int32
}

func (p *gatePipe) Send(b []byte) error {
	if binary.LittleEndian.Uint32(b[5:]) == p.hold {
		p.heldSend.Add(1)
		orig := append([]byte(nil), b...)
		close(p.entered)
		<-p.release
		if !bytes.Equal(b, orig) {
			p.rewrote.Store(true)
		}
	}
	p.conn.Deliver(b)
	return nil
}

func (p *gatePipe) Close() error { return nil }

// TestAbortedCallSlotReuse: Abort retires a call whose handler is still
// running on the server, and the client reuses the slot at once. The newer
// call executes and completes in an entry of its own; the old entry stays
// out of circulation — through the rest of its handler and through its
// owner's send — until that send has returned, and the late response is a
// stray to the client, never the new call's answer.
func TestAbortedCallSlotReuse(t *testing.T) {
	toServer := &handoffPipe{}
	conn := NewConn(toServer, ConnConfig{RetryTimeout: time.Hour})
	toClient := &gatePipe{conn: conn, entered: make(chan struct{}), release: make(chan struct{})}
	inHandler, finish := make(chan struct{}), make(chan struct{})
	var executions atomic.Int32
	r := NewResponder(toClient, ResponderConfig{}, func(req, resp *Msg) {
		if executions.Add(1) == 1 {
			close(inHandler)
			<-finish
		}
		resp.Data = binary.LittleEndian.AppendUint64(resp.Data, req.Addr)
	})
	toServer.deliver = r.Deliver

	type outcome struct {
		addr uint64
		err  error
	}
	call := func(addr uint64) (uint32, chan outcome) {
		ch := make(chan outcome, 1)
		id, err := conn.CallC(&Msg{Kind: KindRMWREQ, Addr: addr, Op: 2, Args: []uint64{1}}, CompletionFunc(func(m *Msg, err error) {
			o := outcome{err: err}
			if err == nil {
				o.addr = binary.LittleEndian.Uint64(m.Data)
			}
			ch <- o
		}))
		if err != nil {
			t.Fatal(err)
		}
		return id, ch
	}
	await := func(ch chan outcome) outcome {
		select {
		case o := <-ch:
			return o
		case <-time.After(5 * time.Second):
			t.Fatal("call never completed")
			return outcome{}
		}
	}

	first, firstDone := call(100)
	toClient.hold = first
	<-inHandler
	r.mu.Lock()
	old := r.slots[first&slotMask].e
	r.mu.Unlock()

	conn.Abort(nil)
	if o := await(firstDone); !errors.Is(o.err, ErrClosed) {
		t.Fatalf("aborted call completed with %v", o.err)
	}
	second, secondDone := call(200)
	if second&slotMask != first&slotMask || second == first {
		t.Fatalf("second call got ID %#x after %#x: slot not reused under a new seq", second, first)
	}
	if o := await(secondDone); o.err != nil || o.addr != 200 {
		t.Fatalf("call in the reused slot completed with %+v", o)
	}

	close(finish)
	<-toClient.entered // the old entry's owner is inside its send
	third, thirdDone := call(300)
	if o := await(thirdDone); o.err != nil || o.addr != 300 || third&slotMask != first&slotMask {
		t.Fatalf("third call (ID %#x) completed with %+v", third, o)
	}
	freed := func() bool {
		for e := r.free; e != nil; e = e.next {
			if e == old {
				return true
			}
		}
		return false
	}
	r.mu.Lock()
	if !old.detached || old.waiters != 1 || freed() || r.slots[first&slotMask].e == old {
		t.Errorf("old entry during its owner's send: detached %v, waiters %d, freed %v", old.detached, old.waiters, freed())
	}
	r.mu.Unlock()
	close(toClient.release)
	toServer.wg.Wait()

	r.mu.Lock()
	if !freed() || old.detached || old.waiters != 0 {
		t.Errorf("old entry after its owner's send: freed %v, detached %v, waiters %d", freed(), old.detached, old.waiters)
	}
	r.mu.Unlock()
	if toClient.rewrote.Load() {
		t.Error("the old response changed under its owner's send")
	}
	if n := executions.Load(); n != 3 {
		t.Errorf("handler ran %d times, want 3", n)
	}
	if st := conn.Stats(); st.Stray != 1 || st.Responses != 2 || toClient.heldSend.Load() != 1 {
		t.Errorf("conn stats %+v, held sends %d: want the late response counted stray once", st, toClient.heldSend.Load())
	}
	conn.Close()
}

// respond delivers a bare response to c. The Conn tests below run over a
// nullPipe: requests go nowhere and every response is hand-made.
func respond(t *testing.T, c *Conn, kind Kind, id uint32, payload ...byte) {
	t.Helper()
	enc, err := (&Msg{Kind: kind, ID: id, Data: payload}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Deliver(enc)
}

// TestConnLateResponseToReusedSlot: a response that outlives its call finds
// the slot idle, or busy with a newer call. Either way it is a stray; the
// newer call only ever completes with the response carrying its own ID.
func TestConnLateResponseToReusedSlot(t *testing.T) {
	c := NewConn(nullPipe{}, ConnConfig{RetryTimeout: 2 * time.Millisecond, MaxRetries: -1})
	defer c.Close()
	timedOut := make(chan error, 1)
	first, err := c.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(func(_ *Msg, err error) { timedOut <- err }))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-timedOut; !errors.Is(err, ErrTimeout) {
		t.Fatalf("first call: %v", err)
	}
	respond(t, c, KindRRESP, first, 1) // slot idle
	if st := c.Stats(); st.Stray != 1 {
		t.Fatalf("late response to an idle slot: %+v", st)
	}

	var got []byte
	completions := 0
	c.mu.Lock()
	c.cfg.RetryTimeout = time.Hour // the second call must not time out under the test
	c.mu.Unlock()
	second, err := c.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(func(m *Msg, err error) {
		completions++
		if err == nil {
			got = append(got, m.Data...)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if second != first+MaxSlots {
		t.Fatalf("second call ID %#x, want slot %d one seq up (%#x)", second, first&slotMask, first+MaxSlots)
	}
	respond(t, c, KindRRESP, first, 1)           // the old use of this slot
	respond(t, c, KindRRESP, second+MaxSlots, 2) // a use that has not happened
	respond(t, c, KindWACK, second)              // right ID, wrong kind
	respond(t, c, KindRRESP, second|77, 3)       // a slot never allocated
	if completions != 0 {
		t.Fatal("a response that was not the call's own completed it")
	}
	if st := c.Stats(); st.Stray != 5 || st.Responses != 0 {
		t.Fatalf("conn stats %+v, want 5 strays", st)
	}
	respond(t, c, KindRRESP, second, 9)
	respond(t, c, KindRRESP, second, 9) // duplicate of a delivered response
	if completions != 1 || !bytes.Equal(got, []byte{9}) {
		t.Fatalf("call completed %d times with %v", completions, got)
	}
	if st := c.Stats(); st.Stray != 6 || st.Responses != 1 || c.Pending() != 0 {
		t.Fatalf("conn stats %+v, pending %d", st, c.Pending())
	}
}

// TestConnAllSlotsBusy: MaxSlots calls in flight exhaust the ID space's
// slot part; the next fails with the typed error and takes nothing, and a
// slot that completes is the one the next call gets.
func TestConnAllSlotsBusy(t *testing.T) {
	c := NewConn(nullPipe{}, ConnConfig{RetryTimeout: time.Hour})
	defer c.Close()
	seen := map[uint32]bool{}
	for i := 0; i < MaxSlots; i++ {
		id, err := c.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(nil))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if id != uint32(i) || seen[id] {
			t.Fatalf("call %d got ID %#x", i, id)
		}
		seen[id] = true
	}
	if _, err := c.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(nil)); !errors.Is(err, ErrSlotsBusy) {
		t.Fatalf("call with every slot in flight: %v, want ErrSlotsBusy", err)
	}
	if c.Pending() != MaxSlots {
		t.Fatalf("pending %d", c.Pending())
	}
	respond(t, c, KindRRESP, 1234)
	id, err := c.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(nil))
	if err != nil || id != 1234+MaxSlots {
		t.Fatalf("call after slot 1234 completed: ID %#x, err %v", id, err)
	}
}

// TestConnIDsRise: whatever order calls complete in, and so whichever slot
// the next call lands in, every call's ID is above all earlier ones (so a
// datagram with an ID not above the highest seen is a retransmission), and
// each slot's seq only moves forward, by no more than calls were issued.
// A slot that fell further behind than the connection will pull it up counts
// on by itself.
func TestConnIDsRise(t *testing.T) {
	c := NewConn(nullPipe{}, ConnConfig{RetryTimeout: time.Hour})
	defer c.Close()
	var live []uint32
	lastOfSlot := map[uint32]uint32{}
	highest, x := uint32(0), uint32(12345)
	for i := 0; i < 5000; i++ {
		x = x*1664525 + 1013904223
		if len(live) > 0 && (len(live) == 8 || x>>31 == 0) {
			k := int(x>>8) % len(live)
			respond(t, c, KindRRESP, live[k])
			live = append(live[:k], live[k+1:]...)
			continue
		}
		id, err := c.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(nil))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && int32(id-highest) <= 0 {
			t.Fatalf("call %d got ID %#x, not above %#x", i, id, highest)
		}
		if last, used := lastOfSlot[id&slotMask]; used && (id-last)>>slotBits-1 >= uint32(i) {
			t.Fatalf("slot %d went from ID %#x to %#x", id&slotMask, last, id)
		}
		highest, lastOfSlot[id&slotMask] = id, id
		live = append(live, id)
	}
	if len(lastOfSlot) != 8 {
		t.Fatalf("%d slots used for at most 8 calls in flight", len(lastOfSlot))
	}
	for _, id := range live {
		respond(t, c, KindRRESP, id)
	}
	c.mu.Lock()
	c.newest += 1<<18<<slotBits + MaxSlots
	behind := c.free.id
	c.mu.Unlock()
	if id, err := c.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(nil)); err != nil || id != behind+MaxSlots {
		t.Fatalf("a slot 2^18 uses behind got ID %#x (err %v), want its own next, %#x", id, err, behind+MaxSlots)
	}
}

// TestSeqWrapEndToEnd carries one slot across the wrap of its use counter
// with both ends live: every call executes once and completes with its own
// response, nothing is taken for stale or stray.
func TestSeqWrapEndToEnd(t *testing.T) {
	executions := 0
	_, conn, r := pair(t, LoopbackConfig{}, ConnConfig{}, func(req, resp *Msg) {
		executions++
		resp.Data = binary.LittleEndian.AppendUint64(resp.Data, req.Addr)
	})
	roundTrip := func(addr uint64) uint32 {
		t.Helper()
		var got uint64
		id, err := conn.CallC(&Msg{Kind: KindRMWREQ, Addr: addr, Op: 2, Args: []uint64{1}}, CompletionFunc(func(m *Msg, err error) {
			if err == nil {
				got = binary.LittleEndian.Uint64(m.Data)
			}
		}))
		if err != nil || got != addr {
			t.Fatalf("call %d: err %v, answered %d", addr, err, got)
		}
		return id
	}
	roundTrip(1)
	// Age both ends of slot 0 to three uses before the wrap.
	conn.mu.Lock()
	conn.slots[0].id = slotID(0, seqMask-3)
	conn.newest = conn.slots[0].id
	conn.mu.Unlock()
	r.mu.Lock()
	r.slots[0].seq = seqMask - 3
	r.mu.Unlock()
	var ids []uint32
	for addr := uint64(2); addr < 10; addr++ {
		ids = append(ids, roundTrip(addr))
	}
	if ids[2] != slotID(0, seqMask) || ids[3] != slotID(0, 0) || ids[7] != slotID(0, 4) {
		t.Fatalf("IDs across the wrap: %#x", ids)
	}
	if st := countsOf(r.metrics); executions != 9 || st.Requests != 9 || st.Stale != 0 || st.Duplicates != 0 {
		t.Fatalf("%d executions, responder %+v", executions, st)
	}
	if st := conn.Stats(); st.Stray != 0 || st.Responses != 9 {
		t.Fatalf("conn %+v", st)
	}
}
