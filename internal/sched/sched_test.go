package sched

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/workload"
)

func testCfg(ports int) Config {
	c := DefaultConfig(ports)
	c.ChunkBytes = 64
	return c
}

// collector gathers grants in issue order.
type collector struct {
	grants []Grant
}

func newSched(t *testing.T, cfg Config) (*sim.Engine, *Scheduler, *collector) {
	t.Helper()
	e := sim.NewEngine()
	s := New(e, cfg)
	c := &collector{}
	s.OnGrant = func(g Grant) { c.grants = append(c.grants, g) }
	return e, s, c
}

func TestSingleMessageFullyGranted(t *testing.T) {
	e, s, c := newSched(t, testCfg(4))
	if err := s.Notify(MsgRef{Src: 0, Dst: 1, ID: 1, Size: 200}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// 200 B at 64 B chunks = 4 grants (64+64+64+8).
	if len(c.grants) != 4 {
		t.Fatalf("grants = %d, want 4", len(c.grants))
	}
	var total int64
	for i, g := range c.grants {
		total += g.Chunk
		if g.Offset != int64(i)*64 {
			t.Errorf("grant %d offset %d", i, g.Offset)
		}
	}
	if total != 200 {
		t.Fatalf("granted %d bytes, want 200", total)
	}
	if !c.grants[0].First || c.grants[0].Final {
		t.Error("first grant flags wrong")
	}
	last := c.grants[len(c.grants)-1]
	if !last.Final || last.Chunk != 8 {
		t.Errorf("final grant = %+v", last)
	}
	if s.Active() != 0 {
		t.Fatalf("Active = %d after drain", s.Active())
	}
}

func TestGrantsPacedAtLineRate(t *testing.T) {
	// Consecutive grants for one message must be spaced by l/B: the
	// early-release optimization keeps the link busy, no faster, no slower.
	e, s, _ := newSched(t, testCfg(4))
	var times []sim.Time
	s.OnGrant = func(g Grant) { times = append(times, e.Now()) }
	if err := s.Notify(MsgRef{Src: 0, Dst: 1, ID: 1, Size: 64 * 10}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(times) != 10 {
		t.Fatalf("grants = %d", len(times))
	}
	want := sim.TransmissionTime(64, 100) // 5.12ns
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		// Allow the iteration pipeline latency on top of l/B.
		if gap < want || gap > want+10*sim.Nanosecond {
			t.Fatalf("grant gap %d = %v, want ~%v", i, gap, want)
		}
	}
}

func TestMatchingIsAMatching(t *testing.T) {
	// With many overlapping demands, at any instant at most one in-flight
	// chunk per source and per destination.
	cfg := testCfg(8)
	e := sim.NewEngine()
	s := New(e, cfg)
	type slot struct{ src, dst int }
	inflight := map[int]bool{} // port -> busy as src
	inflightDst := map[int]bool{}
	s.OnGrant = func(g Grant) {
		if inflight[g.Src] || inflightDst[g.Dst] {
			t.Errorf("overlapping grant for src %d dst %d", g.Src, g.Dst)
		}
		inflight[g.Src] = true
		inflightDst[g.Dst] = true
		e.After(sim.TransmissionTime(int(g.Chunk), cfg.LinkBandwidth), func() {
			delete(inflight, g.Src)
			delete(inflightDst, g.Dst)
		})
		_ = slot{}
	}
	rng := workload.NewPartition(1).Stream("sched-matching")
	id := uint64(0)
	for i := 0; i < 40; i++ {
		src := rng.Intn(8)
		dst := rng.Intn(8)
		if src == dst {
			continue
		}
		id++
		// Ignore pair-limit rejections; senders would hold back.
		_ = s.Notify(MsgRef{Src: src, Dst: dst, ID: id, Size: int64(64 * (1 + rng.Intn(5)))})
	}
	e.Run()
}

func TestMaximalMatchingParallelism(t *testing.T) {
	// Four disjoint pairs must all be granted in the same round (PIM runs
	// per-destination in parallel), not serialized.
	e, s, c := newSched(t, testCfg(8))
	for i := 0; i < 4; i++ {
		if err := s.Notify(MsgRef{Src: i, Dst: i + 4, ID: uint64(i), Size: 64}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if len(c.grants) != 4 {
		t.Fatalf("grants = %d", len(c.grants))
	}
	// All four must issue within one round's iterations, i.e. within
	// 3*log2(8)*clock of each other — they are disjoint so one iteration.
	_, _, rounds, iters := s.Stats()
	if rounds < 1 || iters < 1 {
		t.Fatalf("rounds=%d iters=%d", rounds, iters)
	}
	if iters != 1 {
		t.Fatalf("disjoint pairs took %d iterations, want 1", iters)
	}
}

func TestPIMIterationsResolveConflicts(t *testing.T) {
	// Three destinations all want the same source: needs 3 iterations
	// over time as the source frees, but within one round only one wins.
	e, s, c := newSched(t, testCfg(8))
	for d := 1; d <= 3; d++ {
		if err := s.Notify(MsgRef{Src: 0, Dst: d, ID: uint64(d), Size: 64}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if len(c.grants) != 3 {
		t.Fatalf("grants = %d", len(c.grants))
	}
	// Grants must be serialized by the source's busy periods.
	for i := 1; i < len(c.grants); i++ {
		if c.grants[i].Src != 0 {
			t.Fatal("unexpected source")
		}
	}
}

func TestFCFSOrder(t *testing.T) {
	cfg := testCfg(8)
	cfg.Policy = FCFS
	e, s, c := newSched(t, cfg)
	// Two messages to the same destination from different sources,
	// notified at different times: FCFS must grant in notification order
	// even though the second is shorter.
	e.At(1*sim.Nanosecond, func() {
		_ = s.Notify(MsgRef{Src: 0, Dst: 2, ID: 1, Size: 640})
	})
	e.At(2*sim.Nanosecond, func() {
		_ = s.Notify(MsgRef{Src: 1, Dst: 2, ID: 2, Size: 64})
	})
	e.Run()
	if c.grants[0].Src != 0 {
		t.Fatalf("FCFS granted src %d first", c.grants[0].Src)
	}
	// The long message runs to completion before the short one starts
	// (destination busy the whole time, single chunk in flight at a time,
	// FCFS never reorders).
	var seen1 bool
	for _, g := range c.grants {
		if g.Src == 1 {
			seen1 = true
		}
		if seen1 && g.Src == 0 {
			t.Fatal("FCFS interleaved a later arrival before completion")
		}
	}
}

func TestSRPTPrefersShort(t *testing.T) {
	cfg := testCfg(8)
	cfg.Policy = SRPT
	e, s, c := newSched(t, cfg)
	// Notify the long message first, short second, at the same instant.
	_ = s.Notify(MsgRef{Src: 0, Dst: 2, ID: 1, Size: 6400})
	_ = s.Notify(MsgRef{Src: 1, Dst: 2, ID: 2, Size: 64})
	e.Run()
	// The short message must finish before the long one.
	finish := map[uint64]int{}
	for i, g := range c.grants {
		if g.Final {
			finish[g.ID] = i
		}
	}
	if finish[2] > finish[1] {
		t.Fatalf("SRPT finished long before short: %v", finish)
	}
}

// The TestSortedArray* tests check what the paper's per-source sorted array
// of destinations reports (§3.1.2); the scheduler computes the same answer
// from the requests' own queue keys.

func TestSortedArrayArbitrate(t *testing.T) {
	// Several destinations request one source in the same PIM iteration;
	// the source's priority encoder grants the request with the best queue
	// key, and among equal keys the one keyed first. Every message is
	// notified at time 0, so FCFS keys are all equal.
	cases := []struct {
		name   string
		policy Policy
		dsts   []int   // notified in this order, all from source 0
		sizes  []int64 // per notification
		first  int     // destination of the first grant
		finals []int   // destinations in the order their messages finish
	}{
		{"SRPT grants the shortest", SRPT, []int{1, 2, 3}, []int64{640, 64, 320}, 2, []int{2, 3, 1}},
		{"FCFS ties go in key order", FCFS, []int{3, 1, 2}, []int64{64, 64, 64}, 3, []int{3, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg(4)
			cfg.Policy = tc.policy
			e, s, c := newSched(t, cfg)
			for i, d := range tc.dsts {
				if err := s.Notify(MsgRef{Src: 0, Dst: d, ID: uint64(i), Size: tc.sizes[i]}); err != nil {
					t.Fatal(err)
				}
			}
			e.Run()
			if len(c.grants) == 0 {
				t.Fatal("no grants")
			}
			if d := c.grants[0].Dst; d != tc.first {
				t.Fatalf("first grant to destination %d, want %d", d, tc.first)
			}
			var finals []int
			for _, g := range c.grants {
				if g.Final {
					finals = append(finals, g.Dst)
				}
			}
			if fmt.Sprint(finals) != fmt.Sprint(tc.finals) {
				t.Fatalf("messages finished at destinations %v, want %v", finals, tc.finals)
			}
		})
	}
}

func TestSortedArrayUpdateMovesPriority(t *testing.T) {
	// Under SRPT a granted chunk re-keys its message, and the encoder must
	// rank it by the new key. Source 0 has A (dst 1, 200 B) and B (dst 2,
	// 150 B); C (source 3, dst 2, 64 B) holds dst 2 in the first iteration,
	// so A takes a chunk there and drops to 136 B. In the next round A and
	// B both request source 0, and A, at its new key, must beat B.
	cfg := testCfg(4)
	cfg.Policy = SRPT
	e, s, c := newSched(t, cfg)
	for _, ref := range []MsgRef{
		{Src: 0, Dst: 1, ID: 1, Size: 200},
		{Src: 0, Dst: 2, ID: 2, Size: 150},
		{Src: 3, Dst: 2, ID: 3, Size: 64},
	} {
		if err := s.Notify(ref); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if len(c.grants) < 3 {
		t.Fatalf("grants = %d", len(c.grants))
	}
	if g := c.grants[0]; g.ID != 1 || g.Chunk != 64 {
		t.Fatalf("first grant = %+v, want 64 B of message 1", g)
	}
	if g := c.grants[1]; g.ID != 3 {
		t.Fatalf("second grant = %+v, want message 3", g)
	}
	if g := c.grants[2]; g.ID != 1 {
		t.Fatalf("third grant to message %d; the re-keyed message 1 (136 B) must outrank message 2 (150 B)", g.ID)
	}
	var finals []uint64
	for _, g := range c.grants {
		if g.Final {
			finals = append(finals, g.ID)
		}
	}
	if fmt.Sprint(finals) != "[3 1 2]" {
		t.Fatalf("messages finished in order %v, want [3 1 2]", finals)
	}
	for d := 0; d < cfg.Ports; d++ {
		if n := s.QueueLen(d); n != 0 {
			t.Fatalf("queue %d holds %d after drain", d, n)
		}
	}
}

// Property: the first grant of source 0 goes to the requesting destination
// with the minimum key, the first-keyed one among equals.
func TestSortedArrayArbitrateProperty(t *testing.T) {
	f := func(keys []uint8, mask uint8) bool {
		if len(keys) > 8 {
			keys = keys[:8]
		}
		cfg := testCfg(9)
		cfg.Policy = SRPT
		e, s, c := newSched(t, cfg)
		best := -1
		for d, k := range keys {
			if mask&(1<<uint(d)) == 0 {
				continue
			}
			// Sizes stay within one chunk, so the SRPT key is the size.
			if err := s.Notify(MsgRef{Src: 0, Dst: d + 1, ID: uint64(d), Size: int64(k)%64 + 1}); err != nil {
				t.Fatal(err)
			}
			if best < 0 || keys[d]%64 < keys[best]%64 {
				best = d
			}
		}
		e.Run()
		if best < 0 {
			return len(c.grants) == 0
		}
		return len(c.grants) > 0 && c.grants[0].Dst == best+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInOrderWithinPair(t *testing.T) {
	// Under SRPT, a shorter later message between the SAME pair must not
	// overtake an earlier longer one (§3.1.1 property 5). The pair's FIFO
	// holds notifications beyond X = 3 rather than rejecting them: a
	// pair's demand comes from two hosts' windows.
	cases := []struct {
		name  string
		sizes []int64
	}{
		{"long then short", []int64{640, 64}},
		{"beyond X", []int64{640, 64, 320, 64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg(4)
			cfg.Policy = SRPT
			e, s, c := newSched(t, cfg)
			for i, size := range tc.sizes {
				if err := s.Notify(MsgRef{Src: 0, Dst: 1, ID: uint64(i), Size: size}); err != nil {
					t.Fatalf("notify %d: %v", i, err)
				}
			}
			e.Run()
			// Grants must come message by message, in notification order.
			next, granted := uint64(0), int64(0)
			for i, g := range c.grants {
				if g.ID != next || g.Offset != granted {
					t.Fatalf("grant %d is id %d offset %d, want id %d offset %d", i, g.ID, g.Offset, next, granted)
				}
				granted += g.Chunk
				if g.Final {
					next, granted = next+1, 0
				}
			}
			if next != uint64(len(tc.sizes)) {
				t.Fatalf("%d of %d messages fully granted", next, len(tc.sizes))
			}
		})
	}
}

func TestNotifyValidation(t *testing.T) {
	_, s, _ := newSched(t, testCfg(4))
	cases := []MsgRef{
		{Src: -1, Dst: 1, Size: 64},
		{Src: 0, Dst: 4, Size: 64},
		{Src: 2, Dst: 2, Size: 64},
		{Src: 0, Dst: 1, Size: 0},
	}
	for _, ref := range cases {
		if err := s.Notify(ref); !errors.Is(err, ErrBadRef) {
			t.Errorf("Notify(%+v) = %v", ref, err)
		}
	}
	if err := s.Notify(MsgRef{Src: 0, Dst: 1, ID: 7, Size: 64 * 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.Notify(MsgRef{Src: 0, Dst: 1, ID: 7, Size: 64}); !errors.Is(err, ErrDupID) {
		t.Errorf("duplicate id: %v", err)
	}
}

func TestMatchingLatency(t *testing.T) {
	cfg := DefaultConfig(512)
	s := New(sim.NewEngine(), cfg)
	// Paper §3.1.3: 3*log2(512) = 27 cycles at 3 GHz ≈ 9 ns.
	got := s.MatchingLatency()
	if got != sim.Time(27)*cfg.ClockPeriod {
		t.Fatalf("MatchingLatency = %v", got)
	}
	if got < 8*sim.Nanosecond || got > 10*sim.Nanosecond {
		t.Fatalf("512-port matching latency %v outside ~9ns", got)
	}
}

func TestFullLoadUtilization(t *testing.T) {
	// A saturated permutation workload must keep every link ~fully used:
	// total granted bytes per unit time ≈ N * B. We check the schedule
	// completes within ~1.1x the ideal serialization time.
	cfg := testCfg(8)
	e, s, c := newSched(t, cfg)
	const msgSize = 640
	const perPair = 5
	for i := 0; i < 8; i++ {
		dst := (i + 1) % 8
		for k := 0; k < perPair; k++ {
			// Stay within the pair limit by chaining IDs; the limit is 3,
			// so feed two now and the rest as grants complete.
			if k < 3 {
				_ = s.Notify(MsgRef{Src: i, Dst: dst, ID: uint64(k), Size: msgSize})
			}
		}
	}
	e.Run()
	ideal := sim.TransmissionTime(msgSize*3, cfg.LinkBandwidth)
	if e.Now() > ideal+ideal/5 {
		t.Fatalf("permutation schedule took %v, ideal %v", e.Now(), ideal)
	}
	var bytes int64
	for _, g := range c.grants {
		bytes += g.Chunk
	}
	if bytes != msgSize*3*8 {
		t.Fatalf("granted %d bytes", bytes)
	}
}

func TestIterationCap(t *testing.T) {
	// With MaxIterations=1 and two destinations contending for distinct
	// sources, matching still completes but may take more rounds.
	cfg := testCfg(8)
	cfg.MaxIterations = 1
	e, s, c := newSched(t, cfg)
	for d := 1; d <= 3; d++ {
		_ = s.Notify(MsgRef{Src: 0, Dst: d, ID: uint64(d), Size: 64})
	}
	e.Run()
	if len(c.grants) != 3 {
		t.Fatalf("grants = %d under iteration cap", len(c.grants))
	}
}

func TestStatsAndQueueLen(t *testing.T) {
	e, s, _ := newSched(t, testCfg(4))
	_ = s.Notify(MsgRef{Src: 0, Dst: 1, ID: 1, Size: 64})
	_ = s.Notify(MsgRef{Src: 2, Dst: 1, ID: 2, Size: 64})
	if s.QueueLen(1) != 2 {
		t.Fatalf("QueueLen(1) = %d", s.QueueLen(1))
	}
	e.Run()
	grants, notifies, rounds, _ := s.Stats()
	if grants != 2 || notifies != 2 || rounds == 0 {
		t.Fatalf("stats: grants=%d notifies=%d rounds=%d", grants, notifies, rounds)
	}
}

// FuzzSchedulerInvariants checks that random workloads, under either policy
// and any iteration cap, (a) grant every byte exactly once, (b) never
// overlap a port, (c) deliver pairs in order. For (b), a port's next grant
// (as a source, or as a destination) reaches OnGrant no earlier than the
// previous one's time plus its chunk time.
func FuzzSchedulerInvariants(f *testing.F) {
	for seed := uint64(0); seed < 10; seed++ {
		f.Add(seed, seed%2 == 0, uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed uint64, fcfs bool, maxIters uint8) {
		rng := workload.NewPartition(seed).Stream("sched-invariants")
		cfg := testCfg(6)
		if fcfs {
			cfg.Policy = FCFS
		}
		cfg.MaxIterations = int(maxIters % 4)
		e := sim.NewEngine()
		s := New(e, cfg)
		granted := map[uint64]int64{}
		sizes := map[uint64]int64{}
		firstGrant := map[uint64]int{}
		finalGrant := map[uint64]int{}
		srcFreeAt := make([]sim.Time, cfg.Ports)
		dstFreeAt := make([]sim.Time, cfg.Ports)
		idx := 0
		s.OnGrant = func(g Grant) {
			if g.Offset != granted[g.ID] {
				t.Fatalf("msg %d granted at offset %d after %d bytes", g.ID, g.Offset, granted[g.ID])
			}
			granted[g.ID] += g.Chunk
			now := e.Now()
			if now < srcFreeAt[g.Src] || now < dstFreeAt[g.Dst] {
				t.Fatalf("grant %d->%d at %v overlaps: source free at %v, destination at %v",
					g.Src, g.Dst, now, srcFreeAt[g.Src], dstFreeAt[g.Dst])
			}
			end := now + sim.TransmissionTime(int(g.Chunk), cfg.LinkBandwidth)
			srcFreeAt[g.Src], dstFreeAt[g.Dst] = end, end
			if g.First {
				firstGrant[g.ID] = idx
			}
			if g.Final {
				finalGrant[g.ID] = idx
			}
			idx++
		}
		id := uint64(0)
		pairSeq := map[pairKey][]uint64{}
		for i := 0; i < 30; i++ {
			src, dst := rng.Intn(6), rng.Intn(6)
			if src == dst {
				continue
			}
			id++
			size := int64(1 + rng.Intn(500))
			at := sim.Time(rng.Intn(100)) * sim.Nanosecond
			ref := MsgRef{Src: src, Dst: dst, ID: id, Size: size}
			e.At(at, func() {
				if err := s.Notify(ref); err == nil {
					sizes[ref.ID] = size
					pairSeq[pairKey{src, dst}] = append(pairSeq[pairKey{src, dst}], ref.ID)
				}
			})
		}
		e.Run()
		for mid, size := range sizes {
			if granted[mid] != size {
				t.Fatalf("msg %d granted %d of %d", mid, granted[mid], size)
			}
		}
		for pk, seq := range pairSeq {
			for i := 1; i < len(seq); i++ {
				if firstGrant[seq[i]] < finalGrant[seq[i-1]] {
					t.Fatalf("pair %v: msg %d started before %d finished", pk, seq[i], seq[i-1])
				}
			}
		}
		if s.Active() != 0 {
			t.Fatalf("%d messages stuck", s.Active())
		}
	})
}

func TestChunkTimeOverridesPacing(t *testing.T) {
	// With a ChunkTime that doubles the busy period, grants for one
	// message must be spaced twice as far apart.
	cfg := testCfg(4)
	cfg.ChunkTime = func(l int64) sim.Time {
		return 2 * sim.TransmissionTime(int(l), cfg.LinkBandwidth)
	}
	e := sim.NewEngine()
	s := New(e, cfg)
	var times []sim.Time
	s.OnGrant = func(Grant) { times = append(times, e.Now()) }
	if err := s.Notify(MsgRef{Src: 0, Dst: 1, ID: 1, Size: 64 * 4}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(times) != 4 {
		t.Fatalf("grants = %d", len(times))
	}
	want := 2 * sim.TransmissionTime(64, cfg.LinkBandwidth)
	for i := 1; i < len(times); i++ {
		if gap := times[i] - times[i-1]; gap < want {
			t.Fatalf("gap %d = %v < %v with doubled ChunkTime", i, gap, want)
		}
	}
}

func TestSchedulerStarvationFreedomFCFS(t *testing.T) {
	// Under FCFS, a continuous stream of later-arriving messages must not
	// starve an early one, even when they share its destination.
	cfg := testCfg(8)
	cfg.Policy = FCFS
	e := sim.NewEngine()
	s := New(e, cfg)
	doneFirst := sim.Time(0)
	s.OnGrant = func(g Grant) {
		if g.ID == 0 && g.Final {
			doneFirst = e.Now()
		}
	}
	_ = s.Notify(MsgRef{Src: 0, Dst: 7, ID: 0, Size: 640})
	for i := 1; i <= 6; i++ {
		i := i
		e.At(sim.Time(i)*10*sim.Nanosecond, func() {
			_ = s.Notify(MsgRef{Src: i, Dst: 7, ID: uint64(i), Size: 640})
		})
	}
	e.Run()
	if doneFirst == 0 {
		t.Fatal("first message never finished")
	}
	// It must finish within roughly its own serialization time plus one
	// competitor's worth of interleaving at the destination.
	if doneFirst > 3*sim.TransmissionTime(640, cfg.LinkBandwidth)+sim.Microsecond {
		t.Fatalf("first message finished at %v: starved", doneFirst)
	}
}
