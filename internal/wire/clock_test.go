package wire

import (
	"errors"
	"testing"
	"time"
)

// The retransmission clock's tests drive Conn.tick by hand. Every Conn here
// has an hour-long RetryTimeout, so its real timer never fires under the
// test and the ticks below are the only ones.

// tickPipe loses every datagram and records the message ID of each.
type tickPipe struct {
	ids    []uint32
	onSend func(id uint32) // if set, runs inside each Send
}

func (p *tickPipe) Send(b []byte) error {
	id := p.record(b)
	if p.onSend != nil {
		p.onSend(id)
	}
	return nil
}

func (p *tickPipe) record(b []byte) uint32 {
	var m Msg
	if err := DecodeInto(&m, b); err != nil {
		panic(err)
	}
	p.ids = append(p.ids, m.ID)
	return m.ID
}

func (p *tickPipe) Close() error { return nil }

// hourConn is a Conn over pipe whose clock only ticks by hand.
func hourConn(t *testing.T, pipe Pipe, maxRetries int) *Conn {
	t.Helper()
	c := NewConn(pipe, ConnConfig{RetryTimeout: time.Hour, MaxRetries: maxRetries})
	t.Cleanup(func() { c.Close() })
	return c
}

// issue starts one read whose outcome lands in *got.
func issue(t *testing.T, c *Conn, got *error) uint32 {
	t.Helper()
	id, err := c.CallC(&Msg{Kind: KindRREQ, Count: 8}, CompletionFunc(func(_ *Msg, err error) { *got = err }))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// ticks drives n beats of c's clock.
func ticks(c *Conn, n int) {
	for i := 0; i < n; i++ {
		c.tick()
	}
}

// clockState reports whether c's clock is on and whether its timer is
// pending, disarming the timer if it is.
func clockState(c *Conn) (on, armed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clockOn, c.clock.Stop()
}

// TestClockRetransmitTicks: a send while the clock runs is resent at the
// third tick after it, not the second. The send that arms an idle clock,
// whose first tick is one period later, is resent at the second, not the
// first: both wait between RetryTimeout and 1.5×RetryTimeout.
func TestClockRetransmitTicks(t *testing.T) {
	pipe := &tickPipe{}
	c := hourConn(t, pipe, 5)
	var got error
	id := issue(t, c, &got) // arms the clock
	c.tick()
	if len(pipe.ids) != 1 {
		t.Fatalf("resent at the first tick after arming: %#x", pipe.ids)
	}
	c.tick()
	if len(pipe.ids) != 2 || pipe.ids[1] != id {
		t.Fatalf("second tick after arming sent %#x, want one copy of %#x", pipe.ids[1:], id)
	}
	ticks(c, retryTicks-1)
	if len(pipe.ids) != 2 {
		t.Fatalf("resent before the third tick after the retransmission: %#x", pipe.ids)
	}
	c.tick()
	if len(pipe.ids) != 3 || pipe.ids[2] != id {
		t.Fatalf("third tick sent %#x, want one copy of %#x", pipe.ids[2:], id)
	}
	if st := c.Stats(); st.Retransmit != 2 || st.Sent != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestClockTimesOutAfterRetryBudget: MaxRetries+1 attempts, each waited out
// for retryTicks ticks (the first, which armed the clock, for one fewer),
// and the call fails with ErrTimeout when the last one's wait ends — not
// before.
func TestClockTimesOutAfterRetryBudget(t *testing.T) {
	const maxRetries = 2
	pipe := &tickPipe{}
	c := hourConn(t, pipe, maxRetries)
	var got error
	issue(t, c, &got)
	budget := retryTicks*(maxRetries+1) - 1
	ticks(c, budget-1)
	if got != nil || c.Pending() != 1 {
		t.Fatalf("failed early: %v", got)
	}
	c.tick()
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("after %d ticks: %v, want ErrTimeout", budget, got)
	}
	if len(pipe.ids) != maxRetries+1 {
		t.Fatalf("%d attempts, want %d", len(pipe.ids), maxRetries+1)
	}
	if st := c.Stats(); st.Timeouts != 1 || st.Retransmit != maxRetries {
		t.Fatalf("stats %+v", st)
	}
}

// TestClockSkipsCompletedCall: a call answered between ticks is never sent
// again.
func TestClockSkipsCompletedCall(t *testing.T) {
	pipe := &tickPipe{}
	c := hourConn(t, pipe, 5)
	var got error
	id := issue(t, c, &got)
	c.tick()
	respond(t, c, KindRRESP, id)
	ticks(c, 2*retryTicks)
	if len(pipe.ids) != 1 || got != nil {
		t.Fatalf("%d datagrams, outcome %v: want the one send and a clean completion", len(pipe.ids), got)
	}
}

// TestClockReusedSlotKeepsItsOwnCount: a slot retired and reused between
// ticks carries its new call's send tick. The tick at which the old call
// would have been due (the second: its send armed the clock) resends
// nothing; the new call is resent at its own third tick, under its own ID.
func TestClockReusedSlotKeepsItsOwnCount(t *testing.T) {
	pipe := &tickPipe{}
	c := hourConn(t, pipe, 5)
	var first, second error
	a := issue(t, c, &first)
	c.tick()
	respond(t, c, KindRRESP, a)
	b := issue(t, c, &second)
	if b&slotMask != a&slotMask || b == a {
		t.Fatalf("second call %#x did not reuse the slot of %#x", b, a)
	}
	ticks(c, retryTicks-1)
	if len(pipe.ids) != 2 {
		t.Fatalf("resent %v before the new call's third tick", pipe.ids[2:])
	}
	c.tick()
	if len(pipe.ids) != 3 || pipe.ids[2] != b {
		t.Fatalf("sent %#x, want one retransmission of %#x", pipe.ids, b)
	}
}

// TestClockPinsDueRecords: a call the tick found due and completed while the
// tick sends keeps its record until its own send is done, so a call issued
// in that window takes another slot and is never sent as a retransmission.
func TestClockPinsDueRecords(t *testing.T) {
	pipe := &tickPipe{}
	c := hourConn(t, pipe, 5)
	var errZ, errA, errB, errN error
	// A first call arms the clock, so a and b are stamped alike and fall
	// due at the same tick.
	respond(t, c, KindRRESP, issue(t, c, &errZ))
	pipe.ids = pipe.ids[:0]
	a := issue(t, c, &errA)
	b := issue(t, c, &errB)
	var n uint32
	pipe.onSend = func(id uint32) {
		if id != a || n != 0 {
			return
		}
		respond(t, c, KindRRESP, b) // b was scanned due; now it completes
		n = issue(t, c, &errN)
	}
	ticks(c, retryTicks)
	if n&slotMask == b&slotMask {
		t.Fatalf("new call %#x took the slot of %#x while its retransmission was pending", n, b)
	}
	want := []uint32{a, b, a, n, b}
	if len(pipe.ids) != len(want) {
		t.Fatalf("sent %#x, want %#x", pipe.ids, want)
	}
	for i := range want {
		if pipe.ids[i] != want[i] {
			t.Fatalf("sent %#x, want %#x", pipe.ids, want)
		}
	}
	if errB != nil || c.Pending() != 2 {
		t.Fatalf("outcome %v, %d pending; want b complete and a, n pending", errB, c.Pending())
	}
}

// TestClockDisarmsWhenIdle: once no call is live, the next tick turns the
// clock off and leaves no timer armed; the next send turns it on again.
func TestClockDisarmsWhenIdle(t *testing.T) {
	c := hourConn(t, &tickPipe{}, 5)
	var got error
	id := issue(t, c, &got)
	if on, _ := clockState(c); !on {
		t.Fatal("a send left the clock off")
	}
	respond(t, c, KindRRESP, id)
	c.tick()
	if on, armed := clockState(c); on || armed {
		t.Fatal("an idle tick left the clock running")
	}
	issue(t, c, &got)
	if on, armed := clockState(c); !on || !armed {
		t.Fatal("a send on an idle connection did not arm the clock")
	}
}

// TestClockAbortAndCloseDisarm: Abort and Close leave no timer armed.
func TestClockAbortAndCloseDisarm(t *testing.T) {
	c := hourConn(t, &tickPipe{}, 5)
	var got error
	issue(t, c, &got)
	c.Abort(nil)
	if on, armed := clockState(c); !errors.Is(got, ErrClosed) || on || armed {
		t.Fatalf("after Abort: outcome %v, clock on %v, armed %v", got, on, armed)
	}
	issue(t, c, &got)
	c.Close()
	if _, armed := clockState(c); !errors.Is(got, ErrClosed) || armed {
		t.Fatalf("after Close: outcome %v, armed %v", got, armed)
	}
	c.tick() // a tick that lost the race with Close does nothing
	if _, armed := clockState(c); armed {
		t.Fatal("a tick after Close re-armed the clock")
	}
}

// TestNextTickDue: ticks keep their schedule through a late firing, so
// lateness does not add up across ticks, and a clock more than a period
// behind takes one tick now instead of firing every missed one.
func TestNextTickDue(t *testing.T) {
	const p = 10 * time.Microsecond
	t0 := time.Unix(0, 0)
	for _, tc := range []struct {
		name      string
		now, want time.Duration // from t0, where the last tick was due
	}{
		{"on time", p / 10, p},
		{"late by less than a period", 3 * p / 2, p},
		{"a whole period behind", 2 * p, p},
		{"stalled", 10 * p, 10 * p},
	} {
		if got := nextTickDue(t0, t0.Add(tc.now), p); !got.Equal(t0.Add(tc.want)) {
			t.Errorf("%s: next tick at %v, want %v", tc.name, got.Sub(t0), tc.want)
		}
	}
}

// TestClockTickAllocs: ticks allocate nothing, whether or not a call is
// due; the scan scratch is the connection's, reused.
func TestClockTickAllocs(t *testing.T) {
	pipe := &tickPipe{}
	c := hourConn(t, pipe, 1<<30)
	errs := make([]error, 8)
	for i := range errs {
		issue(t, c, &errs[i])
	}
	ticks(c, retryTicks) // size the scratch
	pipe.ids = make([]uint32, 0, 1<<12)
	if n := testing.AllocsPerRun(300, c.tick); n != 0 {
		t.Fatalf("%v allocs per tick", n)
	}
}
