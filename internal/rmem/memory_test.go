package rmem_test

import (
	"errors"
	"testing"

	"repro/internal/memctl"
	"repro/internal/rmem"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

const testSlab = 1 << 20

// loopNode connects a client to a fresh in-process server over a loopback
// charging clock.
func loopNode(t testing.TB, clock *wire.VirtualClock) *rmem.Client {
	t.Helper()
	srv, err := rmem.NewServer(rmem.ServerConfig{Geometry: rmem.Geometry{SlabBytes: testSlab}})
	if err != nil {
		t.Fatal(err)
	}
	lb := wire.NewLoopback(wire.LoopbackConfig{Clock: clock})
	cl := rmem.NewClient(lb.ClientPipe(), rmem.ClientConfig{Window: 4})
	lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
	lb.BindClient(cl.Deliver)
	if err := cl.Connect(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// seededOps draws n ops over a small region, so reads land on written and
// unwritten words alike, with sizes that end mid-word.
func seededOps(seed uint64, n int) ([]workload.Op, []uint64) {
	st := workload.NewPartition(seed).Stream("ops")
	ops := make([]workload.Op, n)
	addrs := make([]uint64, n)
	for i := range ops {
		ops[i] = workload.Op{Index: i, Size: 1 + int(st.Uint64()%300), Read: st.Uint64()%2 == 0}
		addrs[i] = (st.Uint64() % (64 << 10)) &^ 7
	}
	return ops, addrs
}

// heldMemory completes ops inline, or queues their completions while hold
// is set.
type heldMemory struct {
	hold    bool
	pending []func()
}

func (m *heldMemory) done(f func()) error {
	if m.hold {
		m.pending = append(m.pending, f)
	} else {
		f()
	}
	return nil
}

func (m *heldMemory) release() {
	for _, f := range m.pending {
		f()
	}
	m.pending = nil
}

func (m *heldMemory) Read(_ uint64, n int, cb func([]byte, error)) error {
	return m.done(func() { cb(make([]byte, n), nil) })
}

func (m *heldMemory) Write(_ uint64, _ []byte, cb func(error)) error {
	return m.done(func() { cb(nil) })
}

func (m *heldMemory) RMW(uint64, memctl.RMWOp, []uint64, func(uint64, error)) error {
	return errors.New("unused")
}

// TestReplayPacedSheds: an open loop sheds exactly the ops that find no free
// slot at their due time, and issues the rest on schedule.
func TestReplayPacedSheds(t *testing.T) {
	mem := &heldMemory{hold: true}
	ops := make([]workload.Op, 7)
	for i := range ops {
		ops[i] = workload.Op{Index: i, Size: 64, Read: i%2 == 0}
	}
	var now sim.Time
	var due []sim.Time
	after := make([]rmem.OpResult, len(ops))
	var afterCalls int
	results := rmem.Replay(mem, ops, make([]uint64, len(ops)), rmem.ReplayConfig{
		Window: 2,
		After: func(i int, r rmem.OpResult) {
			after[i] = r
			afterCalls++
		},
		Now:      func() sim.Time { return now },
		Interval: 10 * sim.Nanosecond,
		WaitUntil: func(at sim.Time) {
			now = at
			due = append(due, at)
			switch len(due) {
			case 4: // ops 0 and 1 complete just as op 3 falls due
				mem.release()
			case 7: // ops 3 and 4 as op 6 does; it then completes inline
				mem.release()
				mem.hold = false
			}
		},
	})
	wantShed := []bool{false, false, true, false, false, true, false}
	if afterCalls != len(ops) {
		t.Errorf("After ran %d times for %d ops", afterCalls, len(ops))
	}
	for i, r := range results {
		if after[i] != r {
			t.Errorf("op %d: After saw %+v, result is %+v", i, after[i], r)
		}
		if r.Shed != wantShed[i] {
			t.Errorf("op %d: shed %v, want %v", i, r.Shed, wantShed[i])
		}
		if r.Shed != errors.Is(r.Err, rmem.ErrTooManyOut) || (!r.Shed && r.Err != nil) {
			t.Errorf("op %d: shed %v with err %v", i, r.Shed, r.Err)
		}
		if due[i] != sim.Time(i)*10*sim.Nanosecond {
			t.Errorf("op %d due at %v", i, due[i])
		}
	}
	// Ops 0 and 1 were held from their due times until op 3's.
	if results[0].Latency != 30*sim.Nanosecond || results[1].Latency != 20*sim.Nanosecond {
		t.Errorf("held latencies %v, %v", results[0].Latency, results[1].Latency)
	}
}

// tamperMemory is a flat byte slab whose reads are passed through tamper.
type tamperMemory struct {
	slab   []byte
	tamper func(m *tamperMemory, addr uint64, data []byte) []byte
}

func (m *tamperMemory) Read(addr uint64, n int, cb func([]byte, error)) error {
	data := append([]byte(nil), m.slab[addr:addr+uint64(n)]...)
	if m.tamper != nil {
		data = m.tamper(m, addr, data)
	}
	cb(data, nil)
	return nil
}

func (m *tamperMemory) Write(addr uint64, data []byte, cb func(error)) error {
	copy(m.slab[addr:], data)
	cb(nil)
	return nil
}

func (m *tamperMemory) RMW(uint64, memctl.RMWOp, []uint64, func(uint64, error)) error {
	return errors.New("unused")
}

// TestReplayChecksData: the replay accepts what its own writes can have
// left — untouched zeros, whole words, a write's mid-word tail — and fails
// a read with ErrMismatch on anything else: a flipped bit, data from
// another address, a short read, and (at window 1) zeros where a write was
// acked, which is what a failover to an empty replica returns.
func TestReplayChecksData(t *testing.T) {
	type step struct {
		read bool
		addr uint64
		size int
	}
	r := func(addr uint64, size int) step { return step{true, addr, size} }
	w := func(addr uint64, size int) step { return step{false, addr, size} }
	zeros := func(_ *tamperMemory, _ uint64, d []byte) []byte { return make([]byte, len(d)) }
	for _, tc := range []struct {
		name   string
		window int
		tamper func(*tamperMemory, uint64, []byte) []byte
		steps  []step
		bad    []int // steps that must fail with ErrMismatch; the rest succeed
	}{
		{name: "clean", window: 1, steps: []step{
			r(0, 100),    // untouched
			w(64, 13),    // ends mid-word
			r(64, 13),    // exactly the write
			r(64, 40),    // the tail word's prefix, then zeros
			r(72, 3),     // inside the prefix
			w(4096, 256), // whole words
			r(4000, 500),
		}},
		{name: "bit flip", window: 4,
			tamper: func(_ *tamperMemory, _ uint64, d []byte) []byte { d[len(d)-1] ^= 0x10; return d },
			steps:  []step{w(0, 64), r(0, 64), r(0, 61)}, bad: []int{1, 2}},
		{name: "wrong address", window: 4,
			tamper: func(m *tamperMemory, a uint64, d []byte) []byte { return m.slab[a+8 : a+8+uint64(len(d))] },
			steps:  []step{w(0, 128), r(0, 64)}, bad: []int{1}},
		{name: "short read", window: 1,
			tamper: func(_ *tamperMemory, _ uint64, d []byte) []byte { return d[:len(d)-1] },
			steps:  []step{w(0, 64), r(0, 64)}, bad: []int{1}},
		{name: "zero fill after ack", window: 1, tamper: zeros,
			steps: []step{r(0, 64), w(0, 64), r(0, 64), r(8, 12), r(8, 4)}, bad: []int{2, 3, 4}},
		// Deeper windows cannot order a read against an ack, so zeros pass.
		{name: "zero fill unordered", window: 2, tamper: zeros,
			steps: []step{w(0, 64), r(0, 64)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := make([]workload.Op, len(tc.steps))
			addrs := make([]uint64, len(tc.steps))
			for i, st := range tc.steps {
				ops[i], addrs[i] = workload.Op{Index: i, Size: st.size, Read: st.read}, st.addr
			}
			mem := &tamperMemory{slab: make([]byte, 8192), tamper: tc.tamper}
			results := rmem.Replay(mem, ops, addrs, rmem.ReplayConfig{
				Window: tc.window, Now: func() sim.Time { return 0 }})
			bad := map[int]bool{}
			for _, i := range tc.bad {
				bad[i] = true
			}
			for i, res := range results {
				if got := errors.Is(res.Err, rmem.ErrMismatch); got != bad[i] || (!got && res.Err != nil) {
					t.Errorf("step %d %+v: err %v, want mismatch %v", i, tc.steps[i], res.Err, bad[i])
				}
			}
		})
	}
}
