//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import (
	"fmt"
	"time"

	"repro/internal/memctl"
	"repro/internal/rmem"
	"repro/internal/wire"
)

// microSlice is how long each direct-call measurement loops.
const microSlice = 150 * time.Millisecond

// msgPair is one op of the workload's mix as the messages the stack would
// put on the wire for it.
type msgPair struct{ req, resp wire.Msg }

// mixMessages draws n ops of sp's stream and renders each as its request
// and response message. Payloads alias one shared buffer: the codec reads
// them, nothing writes.
func mixMessages(sp spec, lay layout, seed uint64, n int) []msgPair {
	gen := newOpGen(sp, lay, seed, "micro")
	payload := make([]byte, sp.Size)
	fillPattern(payload, 0, readK)
	var s slot
	pairs := make([]msgPair, n)
	for i := range pairs {
		gen.next(&s)
		p := &pairs[i]
		id := uint32(i + 1)
		switch s.kind {
		case opRead:
			p.req = wire.Msg{Kind: wire.KindRREQ, ID: id, Addr: s.addr, Count: uint32(s.n)}
			p.resp = wire.Msg{Kind: wire.KindRRESP, ID: id, Count: uint32(s.n), Data: payload[:s.n]}
		case opWrite:
			p.req = wire.Msg{Kind: wire.KindWREQ, ID: id, Addr: s.addr, Count: uint32(s.n), Data: payload[:s.n]}
			p.resp = wire.Msg{Kind: wire.KindWACK, ID: id}
		default:
			p.req = wire.Msg{Kind: wire.KindRMWREQ, ID: id, Addr: s.addr, Op: uint8(memctl.OpFetchAdd), Args: []uint64{s.args[0]}}
			p.resp = wire.Msg{Kind: wire.KindRMWRESP, ID: id, Data: payload[:8]}
		}
	}
	return pairs
}

// loopFor calls body (which performs calls operations) until microSlice has
// passed and returns the mean nanoseconds per operation. The clock is read
// once per body, not once per operation.
func loopFor(calls int, body func()) float64 {
	body() // warm
	var total int64
	var n int
	for total < int64(microSlice) {
		t0 := nowNS()
		body()
		total += nowNS() - t0
		n += calls
	}
	return float64(total) / float64(n)
}

// nullPipe swallows replies.
type nullPipe struct{}

func (nullPipe) Send([]byte) error { return nil }
func (nullPipe) Close() error      { return nil }

// runMicro measures the layers that can be called directly, on the
// workload's own message mix: the codec, rmem.Server.Handle per op kind,
// and Responder.Deliver around a trivial handler.
func runMicro(cfg repConfig) (repResult, error) {
	res := repResult{Spec: cfg.Spec, Seed: cfg.Seed}
	sp, ok := findSpec(cfg.Spec)
	if !ok {
		return res, fmt.Errorf("unknown workload %q", cfg.Spec)
	}
	lay, err := newLayout(cfg.Slab)
	if err != nil {
		return res, err
	}
	n := 1024
	if sp.Size > 4096 {
		n = 128
	}
	pairs := mixMessages(sp, lay, cfg.Seed, n)
	L := map[string]float64{}

	// Codec: encode and decode every request and response of the mix.
	encs := make([][]byte, 0, 2*n)
	var wireBytes, payloadBytes int
	for i := range pairs {
		for _, m := range []*wire.Msg{&pairs[i].req, &pairs[i].resp} {
			b, err := m.AppendEncode(nil)
			if err != nil {
				return res, err
			}
			encs = append(encs, b)
			wireBytes += len(b)
			payloadBytes += len(m.Data)
		}
	}
	var scratch []byte
	var encErr error
	L["wire.codec.encode_ns"] = loopFor(2*n, func() {
		for i := range pairs {
			if scratch, encErr = pairs[i].req.AppendEncode(scratch[:0]); encErr != nil {
				return
			}
			if scratch, encErr = pairs[i].resp.AppendEncode(scratch[:0]); encErr != nil {
				return
			}
		}
	})
	if encErr != nil {
		return res, encErr
	}
	var into wire.Msg
	var decErr error
	L["wire.codec.decode_ns"] = loopFor(2*n, func() {
		for _, b := range encs {
			if err := wire.DecodeInto(&into, b); err != nil {
				decErr = err
				return
			}
		}
	})
	if decErr != nil {
		return res, decErr
	}
	L["wire.codec.wire_bytes_per_op"] = float64(wireBytes) / float64(n)
	L["wire.codec.payload_share"] = float64(payloadBytes) / float64(wireBytes)

	// rmem.Server.Handle, called directly, per kind, at uniform addresses of
	// a prefilled slab. Kinds the mix lacks are measured all the same (at
	// the workload's size), so every workload reports all three.
	srv, err := rmem.NewServer(rmem.ServerConfig{Geometry: rmem.Geometry{SlabBytes: cfg.Slab}})
	if err != nil {
		return res, err
	}
	var resp wire.Msg
	fill := make([]byte, prefillChunk)
	for a := uint64(0); a < lay.readHi; a += prefillChunk {
		fillPattern(fill, a, readK)
		resp = wire.Msg{}
		srv.Handle(&wire.Msg{Kind: wire.KindWREQ, Addr: a, Count: prefillChunk, Data: fill}, &resp)
	}
	// Every call takes a fresh address from the stream: reusing a fixed set
	// would time a warm cache, which the real run never has.
	handle := func(only spec) float64 {
		only.Alternate, only.SplitPct = false, 0
		gen := newOpGen(only, lay, cfg.Seed, "micro-handle")
		reqs := mixMessages(only, lay, cfg.Seed, n)
		var s slot
		return loopFor(n, func() {
			for i := range reqs {
				gen.next(&s)
				reqs[i].req.Addr = s.addr
				resp.Status = wire.StatusOK
				srv.Handle(&reqs[i].req, &resp)
			}
		})
	}
	only := sp
	only.ReadPct, only.WritePct, only.RMWPct = 100, 0, 0
	L["rmem.server.handle_read_ns"] = handle(only)
	only.ReadPct, only.WritePct = 0, 100
	L["rmem.server.handle_write_ns"] = handle(only)
	only.WritePct, only.RMWPct = 0, 100
	L["rmem.server.handle_rmw_ns"] = handle(only)
	if e := srv.Stats().Errors; e > 0 {
		return res, fmt.Errorf("direct Handle calls: %d answered with an error status", e)
	}

	// Responder.Deliver with a handler that only attaches the payload: what
	// the reliable layer's server half costs per request of this mix. IDs
	// must be fresh on every pass or the dedup window would replay.
	payload := make([]byte, sp.Size)
	rsp := wire.NewResponder(nullPipe{}, wire.ResponderConfig{}, func(req, resp *wire.Msg) {
		switch req.Kind {
		case wire.KindRREQ:
			resp.Data = append(resp.Data[:0], payload[:req.Count]...)
		case wire.KindRMWREQ:
			resp.Data = append(resp.Data[:0], payload[:8]...)
		}
	})
	id := uint32(0)
	var respErr error
	L["wire.responder.self_ns"] = loopFor(n, func() {
		for i := range pairs {
			id++
			pairs[i].req.ID = id
			if scratch, respErr = pairs[i].req.AppendEncode(scratch[:0]); respErr != nil {
				return
			}
			rsp.Deliver(scratch)
		}
	})
	if respErr != nil {
		return res, respErr
	}
	// The loop above also encodes each request; take that back out.
	reqEncode := loopFor(n, func() {
		for i := range pairs {
			scratch, _ = pairs[i].req.AppendEncode(scratch[:0])
		}
	})
	L["wire.responder.self_ns"] -= reqEncode
	res.Layer = L
	return res, nil
}
