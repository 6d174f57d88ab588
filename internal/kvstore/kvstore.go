// Package kvstore implements the remote key-value store application of
// §4.2.2: fixed-slot values stored in disaggregated memory, accessed over
// the EDM fabric, with an optional local-DRAM tier for the Figure 7
// local:remote placement sweep. It is the application layer the YCSB
// workloads (Figures 6 and 7) drive.
package kvstore

import (
	"errors"
	"fmt"

	"repro/internal/edm"
	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config sizes the store.
type Config struct {
	// Slots is the number of keys.
	Slots int
	// SlotBytes is the fixed value size per key; every Get reads a whole
	// slot, and RunYCSB writes whole slots.
	SlotBytes int
	// LocalSlots places keys [0, LocalSlots) in node-local DRAM; the rest
	// live on the remote memory node (Figure 7's Local:Remote split).
	LocalSlots int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Slots <= 0 || c.SlotBytes <= 0 {
		return fmt.Errorf("kvstore: invalid geometry %+v", c)
	}
	if c.LocalSlots < 0 || c.LocalSlots > c.Slots {
		return fmt.Errorf("kvstore: local slots %d of %d", c.LocalSlots, c.Slots)
	}
	return nil
}

// Store errors.
var (
	ErrBadKey = errors.New("kvstore: key out of range")
)

// Store is a client handle: key-addressed remote memory with an optional
// local tier.
type Store struct {
	cfg     Config
	fabric  *edm.Fabric
	client  int // compute node port
	memNode int // remote memory node port
	local   *memctl.Controller

	// Stats
	localOps, remoteOps uint64
}

// New builds a store over fabric, serving remote keys from memNode's
// memory. If cfg.LocalSlots > 0 a local DRAM controller must be supplied.
func New(fabric *edm.Fabric, client, memNode int, local *memctl.Controller, cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fabric.Host(memNode).Memory() == nil {
		return nil, fmt.Errorf("kvstore: node %d has no memory attached", memNode)
	}
	if cfg.LocalSlots > 0 && local == nil {
		return nil, fmt.Errorf("kvstore: %d local slots but no local DRAM", cfg.LocalSlots)
	}
	need := uint64(cfg.Slots) * uint64(cfg.SlotBytes)
	if got := fabric.Host(memNode).Memory().Size(); got < need {
		return nil, fmt.Errorf("kvstore: store needs %d bytes, memory node has %d", need, got)
	}
	return &Store{cfg: cfg, fabric: fabric, client: client, memNode: memNode, local: local}, nil
}

// Stats reports local and remote operation counts.
func (s *Store) Stats() (local, remote uint64) { return s.localOps, s.remoteOps }

// IsLocal reports whether key lives in the local tier.
func (s *Store) IsLocal(key int) bool { return key < s.cfg.LocalSlots }

func (s *Store) addr(key int) (uint64, error) {
	if key < 0 || key >= s.cfg.Slots {
		return 0, fmt.Errorf("%w: %d", ErrBadKey, key)
	}
	return uint64(key) * uint64(s.cfg.SlotBytes), nil
}

// Get reads the value for key; cb receives the value bytes.
func (s *Store) Get(key int, cb edm.ReadCallback) error {
	a, err := s.addr(key)
	if err != nil {
		return err
	}
	if s.IsLocal(key) {
		s.localOps++
		data, lat, err := s.local.Read(a, s.cfg.SlotBytes)
		if err != nil {
			return err
		}
		s.fabric.Engine.After(lat, func() { cb(data, nil) })
		return nil
	}
	s.remoteOps++
	s.fabric.Host(s.client).Read(s.memNode, a, s.cfg.SlotBytes, cb)
	return nil
}

// Put writes value to key; cb fires when the write is durable in DRAM.
func (s *Store) Put(key int, value []byte, cb edm.WriteCallback) error {
	a, err := s.addr(key)
	if err != nil {
		return err
	}
	if len(value) > s.cfg.SlotBytes {
		return fmt.Errorf("kvstore: value %d bytes exceeds slot %d", len(value), s.cfg.SlotBytes)
	}
	if s.IsLocal(key) {
		s.localOps++
		lat, err := s.local.Write(a, value)
		if err != nil {
			return err
		}
		s.fabric.Engine.After(lat, func() {
			if cb != nil {
				cb(nil)
			}
		})
		return nil
	}
	s.remoteOps++
	s.fabric.Host(s.client).Write(s.memNode, a, value, cb)
	return nil
}

// CompareAndSwap atomically updates an 8-byte word within the key's slot
// (remote keys only), demonstrating EDM's RMWREQ path for synchronization
// primitives.
func (s *Store) CompareAndSwap(key int, offset uint64, expected, newVal uint64, cb edm.ReadCallback) error {
	a, err := s.addr(key)
	if err != nil {
		return err
	}
	if s.IsLocal(key) {
		res, lat, err := s.local.RMW(a+offset, memctl.OpCAS, expected, newVal)
		if err != nil {
			return err
		}
		s.fabric.Engine.After(lat, func() {
			out := make([]byte, 8)
			out[0] = byte(res)
			cb(out, nil)
		})
		return nil
	}
	s.fabric.Host(s.client).RMW(s.memNode, a+offset, memctl.OpCAS, []uint64{expected, newVal}, cb)
	return nil
}

// OpLatency is one completed YCSB operation.
type OpLatency struct {
	Update  bool
	Local   bool
	Latency sim.Time
}

// RunYCSB drives count operations of the given workload through the store,
// back to back (closed loop, one outstanding op), returning per-op
// latencies. This is the measurement loop behind Figure 7.
func (s *Store) RunYCSB(w workload.YCSBWorkload, count int, seed uint64) ([]OpLatency, error) {
	gen := workload.NewYCSB(w, s.cfg.Slots, seed)
	out := make([]OpLatency, 0, count)
	val := make([]byte, s.cfg.SlotBytes)
	for i := range val {
		val[i] = byte(i)
	}
	for i := 0; i < count; i++ {
		op := gen.Next()
		start := s.fabric.Engine.Now()
		done := false
		var opErr error
		fin := func(err error) { done, opErr = true, err }
		var err error
		if op.Update {
			err = s.Put(op.Key, val, func(e error) { fin(e) })
		} else {
			err = s.Get(op.Key, func(_ []byte, e error) { fin(e) })
		}
		if err != nil {
			return nil, err
		}
		for !done && s.fabric.Engine.Step() {
		}
		if !done {
			return nil, fmt.Errorf("kvstore: op %d never completed", i)
		}
		if opErr != nil {
			return nil, fmt.Errorf("kvstore: op %d: %w", i, opErr)
		}
		out = append(out, OpLatency{
			Update:  op.Update,
			Local:   s.IsLocal(op.Key),
			Latency: s.fabric.Engine.Now() - start,
		})
	}
	return out, nil
}
