package kvstore

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/edm"
	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newStore(t *testing.T, localSlots int) *Store {
	t.Helper()
	f := edm.New(edm.DefaultConfig(2))
	f.AttachMemory(1, memctl.New(memctl.DefaultConfig()))
	var local *memctl.Controller
	if localSlots > 0 {
		local = memctl.New(memctl.DefaultConfig())
	}
	s, err := New(f, 0, 1, local, Config{
		Slots: 1024, SlotBytes: 1024, LocalSlots: localSlots,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func putGetSync(t *testing.T, s *Store, key int, val []byte) []byte {
	t.Helper()
	done := false
	if err := s.Put(key, val, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	for !done && s.fabric.Engine.Step() {
	}
	var got []byte
	done = false
	if err := s.Get(key, func(d []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got, done = d, true
	}); err != nil {
		t.Fatal(err)
	}
	for !done && s.fabric.Engine.Step() {
	}
	return got
}

func TestPutGetRemote(t *testing.T) {
	s := newStore(t, 0)
	val := bytes.Repeat([]byte{0x7e}, 1024)
	got := putGetSync(t, s, 42, val)
	if !bytes.Equal(got, val) {
		t.Fatal("remote value mismatch")
	}
	if l, r := s.Stats(); l != 0 || r != 2 {
		t.Fatalf("stats local=%d remote=%d", l, r)
	}
}

func TestPutGetLocal(t *testing.T) {
	s := newStore(t, 512)
	val := bytes.Repeat([]byte{0x11}, 1024)
	got := putGetSync(t, s, 7, val) // key 7 < 512: local
	if !bytes.Equal(got, val) {
		t.Fatal("local value mismatch")
	}
	if l, r := s.Stats(); l != 2 || r != 0 {
		t.Fatalf("stats local=%d remote=%d", l, r)
	}
}

func TestLocalFasterThanRemote(t *testing.T) {
	s := newStore(t, 512)
	eng := s.fabric.Engine
	measure := func(key int) sim.Time {
		start := eng.Now()
		done := false
		if err := s.Get(key, func(_ []byte, err error) { done = true }); err != nil {
			t.Fatal(err)
		}
		for !done && eng.Step() {
		}
		return eng.Now() - start
	}
	local := measure(3)    // < 512
	remote := measure(700) // >= 512
	t.Logf("local=%v remote=%v", local, remote)
	if local >= remote {
		t.Fatalf("local %v not faster than remote %v", local, remote)
	}
	// Local ~ DRAM latency (~82ns + row dynamics); remote adds the fabric.
	if local > 400*sim.Nanosecond {
		t.Fatalf("local access %v too slow", local)
	}
}

func TestCompareAndSwapRemote(t *testing.T) {
	s := newStore(t, 0)
	var res []byte
	done := false
	if err := s.CompareAndSwap(5, 0, 0, 99, func(d []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		res, done = d, true
	}); err != nil {
		t.Fatal(err)
	}
	for !done && s.fabric.Engine.Step() {
	}
	if len(res) != 8 || res[0] != 1 {
		t.Fatalf("CAS result %v", res)
	}
}

func TestKeyValidation(t *testing.T) {
	s := newStore(t, 0)
	if err := s.Get(-1, nil); !errors.Is(err, ErrBadKey) {
		t.Errorf("negative key: %v", err)
	}
	if err := s.Get(1024, nil); !errors.Is(err, ErrBadKey) {
		t.Errorf("overflow key: %v", err)
	}
	if err := s.Put(0, make([]byte, 2048), nil); err == nil {
		t.Error("oversize value accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	f := edm.New(edm.DefaultConfig(2))
	f.AttachMemory(1, memctl.New(memctl.DefaultConfig()))
	if _, err := New(f, 0, 1, nil, Config{Slots: 0, SlotBytes: 64}); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := New(f, 0, 1, nil, Config{Slots: 8, SlotBytes: 64, LocalSlots: 4}); err == nil {
		t.Error("local slots without local DRAM accepted")
	}
	if _, err := New(f, 0, 0, nil, Config{Slots: 8, SlotBytes: 64}); err == nil {
		t.Error("memory-less node accepted")
	}
	// Store larger than the memory node.
	if _, err := New(f, 0, 1, nil, Config{Slots: 1 << 22, SlotBytes: 1 << 12}); err == nil {
		t.Error("oversized store accepted")
	}
}

func TestRunYCSBMix(t *testing.T) {
	s := newStore(t, 512) // 50% local
	lats, err := s.RunYCSB(workload.YCSBA, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(lats) != 200 {
		t.Fatalf("got %d latencies", len(lats))
	}
	var updates, locals int
	for _, l := range lats {
		if l.Latency <= 0 {
			t.Fatal("non-positive latency")
		}
		if l.Update {
			updates++
		}
		if l.Local {
			locals++
		}
	}
	// YCSB-A is 50% updates; zipf keys mean most hits are in the hot (low,
	// local) keys.
	if updates < 60 || updates > 140 {
		t.Fatalf("updates = %d of 200", updates)
	}
	if locals == 0 || locals == 200 {
		t.Fatalf("locals = %d of 200 (tiering broken)", locals)
	}
}

func TestRunYCSBAllRemoteSlower(t *testing.T) {
	remote := newStore(t, 0)
	mixed := newStore(t, 900)
	rl, err := remote.RunYCSB(workload.YCSBA, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := mixed.RunYCSB(workload.YCSBA, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(ls []OpLatency) float64 {
		var s float64
		for _, l := range ls {
			s += float64(l.Latency)
		}
		return s / float64(len(ls))
	}
	ra, ma := avg(rl), avg(ml)
	t.Logf("all-remote avg %v, mostly-local avg %v", sim.Time(ra), sim.Time(ma))
	if ra <= ma {
		t.Fatalf("all-remote (%f) not slower than mostly-local (%f)", ra, ma)
	}
}
