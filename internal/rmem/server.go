// Package rmem is the live disaggregated-memory service: a server that
// terminates wire requests against a slab of memory with memctl-style
// semantics (byte-addressed reads/writes plus the NIC-side atomic RMW menu
// of §3.2.1), and a client library that mirrors edm.Host's
// bounded-outstanding-ID discipline — asynchronous pipelining, per-ID
// deadlines via the reliable layer's retry budget, and a fail-fast error
// when the window is exhausted.
//
// The server is transport-agnostic: cmd/edmd mounts it on wire.UDPServer,
// tests and the scenario runner's live backend mount it on wire.Loopback.
package rmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Geometry describes the server's memory slab. It rides in the HELLO-ACK
// payload so clients self-configure.
type Geometry struct {
	// SlabBytes is the byte-addressable memory size.
	SlabBytes uint64
}

// geometryBytes is the encoded HELLO-ACK payload size: the slab size, then
// eight bytes sent as zero and ignored on receipt (an older edmd put a slot
// layout there). The loopback charges its virtual clock by datagram size,
// so the payload keeps its length.
const geometryBytes = 16

// Encode renders the geometry as the HELLO-ACK payload.
func (g Geometry) Encode() []byte {
	b := make([]byte, geometryBytes)
	binary.LittleEndian.PutUint64(b, g.SlabBytes)
	return b
}

// DecodeGeometry parses a HELLO-ACK payload.
func DecodeGeometry(b []byte) (Geometry, error) {
	if len(b) != geometryBytes {
		return Geometry{}, fmt.Errorf("rmem: geometry payload %d bytes, want %d", len(b), geometryBytes)
	}
	return Geometry{SlabBytes: binary.LittleEndian.Uint64(b)}, nil
}

// DefaultShards is the slab-lock shard count: the slab is split into
// contiguous byte ranges, each with its own lock and DRAM model, so
// concurrent sessions touching different ranges never serialize. It is a
// fixed constant — not derived from GOMAXPROCS — so the shard map, and with
// it the per-shard DRAM-model state, is identical on every machine and
// loopback runs stay seed-deterministic.
const DefaultShards = 16

// ServerConfig sizes the memory node.
type ServerConfig struct {
	Geometry
	// DupWindow is how many call slots a session may use, each retaining
	// one response for duplicate suppression (wire.ResponderConfig.Window:
	// zero or anything above wire.MaxSlots means wire.MaxSlots). It must
	// cover the most calls a client ever has in flight; requests naming a
	// slot beyond it are rejected.
	DupWindow int
	// Metrics receives the operation counters and service-time histograms.
	// Nil gets a private, unregistered instance.
	Metrics *ServerMetrics
	// Responder, when set, aggregates every session's reliability counters.
	// Nil gets a private instance shared across sessions all the same.
	Responder *wire.ResponderMetrics
	// NowNS supplies timestamps for the per-opcode service-time histograms
	// and the trace ring (nanoseconds; wall or virtual). Nil disables both.
	NowNS func() int64
	// Trace, when non-nil, receives one StageServe record per request.
	Trace *telemetry.TraceRing
}

// ServerStats counts served operations.
type ServerStats struct {
	Hellos, Byes        uint64
	Reads, Writes, RMWs uint64
	Errors              uint64 // requests answered with a non-OK status
	BytesRead           uint64
	BytesWritten        uint64
	// ModeledDRAM accumulates the memctl-modeled DRAM service time of every
	// access — what the accesses would have cost on the paper's DDR4 model —
	// so live runs can report a simulator-comparable memory-side figure.
	ModeledDRAM sim.Time
}

// shardAlign is the shard-boundary granularity. A multiple of the RMW word
// size, so an aligned 8-byte RMW can never span two shards — every atomic
// executes under exactly one shard lock — and of the kernel's page size, so
// each shard's controller maps whole pages.
const shardAlign = 4096

// shard is one contiguous byte range of the slab with its own lock and its
// own memctl.Controller: the DRAM-timing model and the bytes, one mapping
// the kernel fills a page at a time on first write. Padded to a cache line
// so neighbouring shard locks don't false-share under multi-core
// contention.
type shard struct {
	mu  sync.Mutex
	mem *memctl.Controller // guarded by mu (Controller is not itself thread-safe)
	_   [48]byte
}

// Server terminates wire requests against a memory slab. The slab lock is
// sharded by contiguous address range: operations on different shards run
// concurrently; an aligned RMW always falls in exactly one shard, so the
// atomic menu stays atomic under concurrent client sessions — the live
// stand-in for the paper's non-preemptible NIC RMW pipeline (§3.2.1). A
// read or write spanning shards locks them piecewise in ascending order;
// such an access is not atomic with respect to a concurrent overlapping
// write (it never was end-to-end: datagram-sized accesses carry no
// transactional guarantee on the wire either).
type Server struct {
	cfg        ServerConfig
	metrics    *ServerMetrics
	geoPayload []byte // pre-encoded HELLO-ACK geometry, immutable
	shardBytes uint64 // bytes per shard (shardAlign-aligned), immutable
	shards     []shard
}

// NewServer builds a memory node with the given slab (64 MiB when zero).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.SlabBytes == 0 {
		cfg.SlabBytes = 64 << 20
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewServerMetrics(nil)
	}
	if cfg.Responder == nil {
		cfg.Responder = wire.NewResponderMetrics(nil)
	}
	shardBytes := (cfg.SlabBytes + DefaultShards - 1) / DefaultShards
	shardBytes = (shardBytes + shardAlign - 1) &^ uint64(shardAlign-1)
	shards := make([]shard, int((cfg.SlabBytes+shardBytes-1)/shardBytes))
	for i := range shards {
		mcfg := memctl.DefaultConfig()
		mcfg.Size = shardBytes
		if rest := cfg.SlabBytes - uint64(i)*shardBytes; rest < mcfg.Size {
			mcfg.Size = rest
		}
		//edmlint:allow lockcheck shards are not yet published; no other goroutine can observe them
		shards[i].mem = memctl.New(mcfg)
	}
	return &Server{cfg: cfg, metrics: cfg.Metrics,
		geoPayload: cfg.Geometry.Encode(), shardBytes: shardBytes, shards: shards}, nil
}

// Shards reports the effective shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Geometry reports the slab advertised to clients.
func (s *Server) Geometry() Geometry { return s.cfg.Geometry }

// Stats snapshots the operation counters from the server's metrics.
func (s *Server) Stats() ServerStats {
	m := s.metrics
	return ServerStats{
		Hellos:       m.Ops[wire.KindHello].Load(),
		Byes:         m.Ops[wire.KindBye].Load(),
		Reads:        m.Ops[wire.KindRREQ].Load(),
		Writes:       m.Ops[wire.KindWREQ].Load(),
		RMWs:         m.Ops[wire.KindRMWREQ].Load(),
		Errors:       m.Errors.Load(),
		BytesRead:    m.BytesRead.Load(),
		BytesWritten: m.BytesWritten.Load(),
		ModeledDRAM:  sim.Time(m.ModeledDRAMPS.Load()),
	}
}

// Metrics returns the server's metrics instance (never nil after NewServer).
func (s *Server) Metrics() *ServerMetrics { return s.metrics }

// NewSession builds the reliable server half for one client, replying over
// pipe. Each session gets its own call slots; all sessions share the server's
// responder metrics.
func (s *Server) NewSession(pipe wire.Pipe) *wire.Responder {
	return wire.NewResponder(pipe, wire.ResponderConfig{
		Window: s.cfg.DupWindow, Metrics: s.cfg.Responder}, s.Handle)
}

// statusOf maps a memctl error to a wire status.
func statusOf(err error) wire.Status {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, memctl.ErrOutOfRange), errors.Is(err, memctl.ErrBadLength):
		return wire.StatusRange
	case errors.Is(err, memctl.ErrBadOpcode), errors.Is(err, memctl.ErrUnaligned):
		return wire.StatusOp
	}
	return wire.StatusProto
}

// grow returns a length-n slice reusing d's capacity (under a Responder:
// the response datagram's payload window).
//
//edmlint:hotpath
func grow(d []byte, n int) []byte {
	if cap(d) < n {
		//edmlint:allow hotpath allocates only until a direct caller's reused Msg reaches its high-water mark
		return make([]byte, n)
	}
	return d[:n]
}

// access copies between buf and the slab at addr (into buf, or from it when
// write is set), locking the spanned shards piecewise in ascending order,
// and returns the summed modeled latency.
//
//edmlint:hotpath one call per served RREQ or WREQ
func (s *Server) access(addr uint64, buf []byte, write bool) (sim.Time, error) {
	if len(buf) == 0 {
		return 0, memctl.ErrBadLength
	}
	if addr >= s.cfg.SlabBytes || uint64(len(buf)) > s.cfg.SlabBytes-addr {
		return 0, fmt.Errorf("%w: addr=%#x len=%d size=%#x", memctl.ErrOutOfRange, addr, len(buf), s.cfg.SlabBytes)
	}
	var total sim.Time
	for len(buf) > 0 {
		si := int(addr / s.shardBytes)
		base := uint64(si) * s.shardBytes
		n := len(buf)
		if room := base + s.shardBytes - addr; uint64(n) > room {
			n = int(room)
		}
		sh := &s.shards[si]
		var lat sim.Time
		var err error
		sh.mu.Lock()
		if write {
			lat, err = sh.mem.Write(addr-base, buf[:n])
		} else {
			lat, err = sh.mem.ReadInto(addr-base, buf[:n])
		}
		sh.mu.Unlock()
		if err != nil {
			return 0, err
		}
		total += lat
		addr += uint64(n)
		buf = buf[n:]
	}
	return total, nil
}

// rmw executes one atomic under its shard's lock. Shard boundaries are
// word-aligned, so an aligned RMW is always single-shard; the unaligned
// check runs first to mirror the controller's error precedence.
//
//edmlint:hotpath one call per served RMWREQ
func (s *Server) rmw(addr uint64, op memctl.RMWOp, args []uint64) (uint64, sim.Time, error) {
	if addr%memctl.WordBytes != 0 {
		return 0, 0, memctl.ErrUnaligned
	}
	if addr >= s.cfg.SlabBytes || memctl.WordBytes > s.cfg.SlabBytes-addr {
		return 0, 0, fmt.Errorf("%w: addr=%#x len=%d size=%#x", memctl.ErrOutOfRange, addr, memctl.WordBytes, s.cfg.SlabBytes)
	}
	si := int(addr / s.shardBytes)
	base := uint64(si) * s.shardBytes
	sh := &s.shards[si]
	sh.mu.Lock()
	result, lat, err := sh.mem.RMW(addr-base, op, args...)
	sh.mu.Unlock()
	return result, lat, err
}

// Handle executes one fresh request, filling resp in place. It is the
// wire.Responder handler; the responder layer has already suppressed
// duplicates, so every call here executes exactly once. m.Data views the
// request datagram, so a write is one copy, datagram to slab. resp arrives
// with Kind/ID pre-set and resp.Data a zero-length window onto the response
// datagram's payload bytes with room for m.Count, so a read is one copy,
// slab to the bytes that go on the wire. A direct caller's plain Msg makes
// grow allocate once and then reuse that capacity.
//
//edmlint:hotpath one Handle per served request
func (s *Server) Handle(m, resp *wire.Msg) {
	var start int64
	if s.cfg.NowNS != nil {
		start = s.cfg.NowNS()
	}
	mt := s.metrics
	if c := mt.Ops[m.Kind]; c != nil {
		c.Inc()
	}
	switch m.Kind {
	case wire.KindHello:
		resp.Data = append(resp.Data[:0], s.geoPayload...)
	case wire.KindBye:
	case wire.KindRREQ:
		if m.Count > wire.MaxData {
			resp.Status = wire.StatusRange
			break
		}
		resp.Data = grow(resp.Data, int(m.Count))
		lat, err := s.access(m.Addr, resp.Data, false)
		if err != nil {
			resp.Data = resp.Data[:0]
			resp.Status = statusOf(err)
			break
		}
		mt.BytesRead.Add(uint64(len(resp.Data)))
		mt.ModeledDRAMPS.Add(uint64(lat))
	case wire.KindWREQ:
		lat, err := s.access(m.Addr, m.Data, true)
		if err != nil {
			resp.Status = statusOf(err)
			break
		}
		mt.BytesWritten.Add(uint64(len(m.Data)))
		mt.ModeledDRAMPS.Add(uint64(lat))
	case wire.KindRMWREQ:
		result, lat, err := s.rmw(m.Addr, memctl.RMWOp(m.Op), m.Args)
		if err != nil {
			resp.Status = statusOf(err)
			break
		}
		mt.ModeledDRAMPS.Add(uint64(lat))
		resp.Data = grow(resp.Data, 8)
		binary.LittleEndian.PutUint64(resp.Data, result)
	default:
		resp.Kind = wire.KindByeAck
		resp.Status = wire.StatusProto
	}
	if resp.Status != wire.StatusOK {
		mt.Errors.Inc()
	}
	if s.cfg.NowNS != nil {
		dur := s.cfg.NowNS() - start
		if h := mt.Latency[m.Kind]; h != nil {
			h.Observe(dur)
		}
		if s.cfg.Trace != nil {
			var d uint64
			if dur > 0 {
				d = uint64(dur)
			}
			s.cfg.Trace.Record(uint64(m.ID), telemetry.StageServe, uint8(m.Kind), start, d)
		}
	}
}
