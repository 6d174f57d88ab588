package wire

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lint"
)

// blackholePipe answers every request except the first one it sees (the
// victim), whose datagrams it swallows and records. The victim's call record
// therefore stays pending, retransmitted by the connection's clock, while
// other calls churn the connection's free list.
type blackholePipe struct {
	conn *Conn

	mu        sync.Mutex
	haveVict  bool
	victimID  uint32
	victimTxs [][]byte // copies of every victim transmission
}

func (p *blackholePipe) Send(b []byte) error {
	var m Msg
	if err := DecodeInto(&m, b); err != nil {
		return err
	}
	p.mu.Lock()
	if !p.haveVict {
		p.haveVict = true
		p.victimID = m.ID
	}
	if m.ID == p.victimID {
		p.victimTxs = append(p.victimTxs, append([]byte(nil), b...))
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	enc, err := (&Msg{Kind: m.Kind.Response(), ID: m.ID, Status: StatusOK}).AppendEncode(nil)
	if err != nil {
		return err
	}
	p.conn.Deliver(enc)
	return nil
}

func (p *blackholePipe) Close() error { return nil }

// TestRetransmitBufferStableUnderChurn is the pooled-buffer lifecycle check:
// a call record's encode buffer must not be recycled (and rewritten by a new
// call) while a retransmission still references it. The victim call is
// never answered, so its buffer stays owned across many clock ticks; the
// churn calls complete synchronously and recycle records through the free
// list the whole time. Every victim transmission must be byte-identical to
// the first — any reuse of its buffer would show up as a corrupted or
// rewritten retransmission.
func TestRetransmitBufferStableUnderChurn(t *testing.T) {
	p := &blackholePipe{}
	c := NewConn(p, ConnConfig{RetryTimeout: 2 * time.Millisecond, MaxRetries: 1000})
	p.conn = c

	victimDone := make(chan error, 1)
	if _, err := c.CallC(&Msg{Kind: KindRREQ, Addr: 0xabcd, Count: 64},
		CompletionFunc(func(_ *Msg, err error) { victimDone <- err })); err != nil {
		t.Fatal(err)
	}

	// Churn: records and enc buffers cycle through the free list with
	// varying payload sizes, interleaved with victim retransmissions.
	data := make([]byte, 512)
	for i := 0; i < 400; i++ {
		for j := range data {
			data[j] = byte(i + j)
		}
		payload := data[:64+(i%7)*64]
		done := false
		if _, err := c.CallC(&Msg{Kind: KindWREQ, Addr: uint64(i) * 8,
			Count: uint32(len(payload)), Data: payload},
			CompletionFunc(func(_ *Msg, err error) {
				if err != nil {
					t.Error(err)
				}
				done = true
			})); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("synchronous pipe did not complete the churn call")
		}
		if i%100 == 0 {
			//edmlint:allow walltime the retransmission clock under test is real wall-clock time
			time.Sleep(3 * time.Millisecond) // let the clock tick mid-churn
		}
	}
	// Collect a few more retransmissions with the free list fully primed.
	//edmlint:allow walltime the retransmission clock under test is real wall-clock time
	time.Sleep(10 * time.Millisecond)
	c.Close()
	if err := <-victimDone; err == nil {
		t.Fatal("victim call completed without a response")
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.victimTxs) < 3 {
		t.Fatalf("victim transmitted %d times, want >= 3 (timer not firing?)", len(p.victimTxs))
	}
	for i, tx := range p.victimTxs[1:] {
		if !bytes.Equal(tx, p.victimTxs[0]) {
			t.Fatalf("retransmission %d differs from the original request:\n  first: %x\n  retry: %x",
				i+1, p.victimTxs[0], tx)
		}
	}
	var m Msg
	if err := DecodeInto(&m, p.victimTxs[0]); err != nil {
		t.Fatalf("victim datagram does not decode: %v", err)
	}
	if m.Kind != KindRREQ || m.Addr != 0xabcd || m.Count != 64 {
		t.Fatalf("victim datagram decoded to %+v", m)
	}
}

// TestEscapeAnalyzerCatchesRetention complements the churn test above: the
// runtime test can only catch a pooled-buffer bug whose corruption it
// happens to trigger, while the pooledescape analyzer proves the absence of
// the whole retention class. This drives the analyzer over a fixture that
// retains a pooled Msg exactly the way a buggy Completion would — storing
// the message in a global and a slice view of its Data in a field — and
// asserts both escapes are caught statically.
func TestEscapeAnalyzerCatchesRetention(t *testing.T) {
	mod, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadPackages(mod, []string{"../lint/testdata/pooledescape_wire"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	var msgs []string
	for _, f := range lint.Check(pkgs[0], []*lint.Analyzer{lint.Pooledescape}) {
		msgs = append(msgs, f.Message)
	}
	for _, want := range []string{"stored in package-level variable", "stored into field raw"} {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("analyzer missed an escape containing %q; got %v", want, msgs)
		}
	}
}

// reenterPipe models a synchronous transport under pipelining: while the
// outermost Send is still in progress it feeds the responder newer requests,
// among them the next uses of the very slot whose response is being sent,
// then checks that the bytes it was handed did not change under it.
type reenterPipe struct {
	r       *Responder
	next    uint32
	depth   int
	rewrote int
	sent    []uint32
}

// nextID numbers requests over two call slots: 1, 2, 3, ... alternate
// between them, each use of a slot one seq up.
func (p *reenterPipe) nextID() uint32 {
	p.next++
	return slotID(p.next%2, p.next/2)
}

func (p *reenterPipe) Send(b []byte) error {
	orig := append([]byte(nil), b...)
	if p.depth == 0 {
		p.depth++
		for i := 0; i < 6; i++ {
			enc, err := (&Msg{Kind: KindRREQ, ID: p.nextID(), Count: 64}).AppendEncode(nil)
			if err != nil {
				return err
			}
			p.r.Deliver(enc)
		}
		p.depth--
	}
	if !bytes.Equal(b, orig) {
		p.rewrote++
	}
	var m Msg
	if err := DecodeInto(&m, b); err == nil {
		p.sent = append(p.sent, m.ID)
	}
	return nil
}

func (p *reenterPipe) Close() error { return nil }

// TestResponderSendBufferPinned: an entry is done before its owner has
// transmitted from its buffer, and the slot's next request may arrive under
// that transmission. It must not rebuild its response in the buffer the
// first send still references.
func TestResponderSendBufferPinned(t *testing.T) {
	pipe := &reenterPipe{}
	// Each response carries its request's seq in every payload byte, so a
	// buffer rewritten for another request cannot compare equal.
	r := NewResponder(pipe, ResponderConfig{Window: 2}, func(m, resp *Msg) {
		resp.Data = growTestData(resp.Data, int(m.Count))
		for i := range resp.Data {
			resp.Data[i] = byte(m.ID >> slotBits)
		}
	})
	pipe.r = r
	for round := 0; round < 3; round++ {
		enc, err := (&Msg{Kind: KindRREQ, ID: pipe.nextID(), Count: 64}).AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Deliver(enc)
	}
	if pipe.rewrote != 0 {
		t.Fatalf("%d of %d responses were rewritten while their Send was in progress", pipe.rewrote, len(pipe.sent))
	}
	if len(pipe.sent) != 21 {
		t.Fatalf("sent %d responses (%v), want 21: one per request", len(pipe.sent), pipe.sent)
	}
	// The pinned entries were detached, not leaked: at most one per slot
	// waits on the free list, the rest were taken again.
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for e := r.free; e != nil; e = e.next {
		n++
	}
	if n > 2 {
		t.Fatalf("%d entries on the free list after 3 rounds over 2 slots", n)
	}
}
