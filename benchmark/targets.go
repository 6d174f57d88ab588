//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/memctl"
	"repro/internal/rmem"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// target is one assembled stack the driver issues into, plus the handles
// the harness reads counters from afterwards.
type target struct {
	mem      memory
	inline   bool // completes in the caller's stack (everything but UDP)
	stateful bool // holds memory: prefill before, sweep after
	clients  []*rmem.Client
	servers  []*rmem.Server
	respMet  *wire.ResponderMetrics // in-process responders only
	cluster  *cluster.Client
	edmd     *edmdProc
	closers  []func()
}

func (t *target) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// retryConfig: 10 ms per attempt, a one-second per-op deadline. Over UDP
// about one response in 10 k arrives more than 10 ms late (see
// edmdDupWindow for why); its retransmission is answered from the server's
// dedup cache and shows in wire.conn.retransmits, wire.responder.replays and
// wire.conn.strays. A retransmission must reach the server while its ID is
// still inside that window, which at a few hundred thousand ops/s leaves a
// long timeout no room; the generous retry count keeps a descheduled
// process from turning into a failed op.
var retryConfig = wire.ConnConfig{RetryTimeout: 10 * time.Millisecond, MaxRetries: 100}

// buildTarget assembles sp's stack. tr, when non-nil, is wired in through
// shims on every pipe, Deliver func and handler the benchmark can reach.
func buildTarget(sp spec, slab uint64, tr *tracer, edmdBin string, serverCPUs cpuSet) (*target, error) {
	t := &target{inline: sp.Target != tUDP}
	switch sp.Target {
	case tNull:
		t.mem = &nullMem{buf: make([]byte, sp.Size)}
	case tCodec:
		t.mem = &codecMem{}
	case tWire:
		t.mem = newWireMem()
	case tLoop:
		t.stateful = true
		t.respMet = wire.NewResponderMetrics(nil)
		cl, err := t.addLoopNode(sp, slab, tr, -1)
		if err != nil {
			return nil, err
		}
		t.mem = cl
	case tCluster:
		t.stateful = true
		t.respMet = wire.NewResponderMetrics(nil)
		for n := 0; n < sp.Nodes; n++ {
			if _, err := t.addLoopNode(sp, slab, tr, int8(n)); err != nil {
				t.close()
				return nil, err
			}
		}
		// The map seed is part of the system under test, not of the
		// workload: the same extents sit on the same nodes for every -seed.
		cc, err := cluster.New(t.clients, cluster.Config{Seed: 42, Size: slab, ExtentBytes: extentBytes})
		if err != nil {
			t.close()
			return nil, err
		}
		t.cluster, t.mem = cc, cc
	case tUDP:
		t.stateful = true
		if edmdBin == "" {
			return nil, errors.New("UDP target needs a built edmd binary")
		}
		p, err := startEdmd(edmdBin, slab, serverCPUs, tr != nil)
		if err != nil {
			return nil, err
		}
		t.edmd = p
		t.closers = append(t.closers, p.stop)
		uc, err := wire.DialUDP(p.addr)
		if err != nil {
			t.close()
			return nil, err
		}
		var pipe wire.Pipe = uc
		if tr != nil {
			pipe = &tracedPipe{t: tr, pipe: uc, name: spPipeSend, node: -1}
		}
		cl := rmem.NewClient(pipe, rmem.ClientConfig{Window: sp.Window, Retry: retryConfig})
		deliver := cl.Deliver
		if tr != nil {
			deliver = tr.tracedDeliver(spClientDeliver, -1, deliver)
		}
		readLoopDone := make(chan struct{})
		go func() {
			uc.Run(deliver)
			close(readLoopDone)
		}()
		// Closing the client closes the socket, which ends the read loop.
		t.closers = append(t.closers, func() { cl.Close(); <-readLoopDone })
		if err := cl.Connect(); err != nil {
			t.close()
			return nil, fmt.Errorf("connect to edmd at %s: %w", p.addr, err)
		}
		t.clients = append(t.clients, cl)
		t.mem = cl
	}
	return t, nil
}

// addLoopNode builds one rmem.Server and a connected rmem.Client over a
// private wire.Loopback. Untraced it is the stock wiring (NewSession);
// traced, the responder is built by hand so the handler and the reply pipe
// can be wrapped.
func (t *target) addLoopNode(sp spec, slab uint64, tr *tracer, node int8) (*rmem.Client, error) {
	srvCfg := rmem.ServerConfig{Geometry: rmem.Geometry{SlabBytes: slab}, Responder: t.respMet}
	cliCfg := rmem.ClientConfig{Window: sp.Window, Retry: retryConfig}
	if sp.FullTelemetry {
		reg := telemetry.NewRegistry()
		ring := telemetry.NewTraceRing(1024)
		wall := func() int64 { return time.Now().UnixNano() }
		srvCfg.Metrics, srvCfg.Responder = rmem.NewServerMetrics(reg), wire.NewResponderMetrics(reg)
		srvCfg.NowNS, srvCfg.Trace = wall, ring
		cliCfg.Metrics, cliCfg.NowNS, cliCfg.Trace = rmem.NewClientMetrics(reg), wall, ring
		t.respMet = srvCfg.Responder
	}
	srv, err := rmem.NewServer(srvCfg)
	if err != nil {
		return nil, err
	}
	lb := wire.NewLoopback(wire.LoopbackConfig{})
	var cl *rmem.Client
	if tr == nil {
		cl = rmem.NewClient(lb.ClientPipe(), cliCfg)
		lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
		lb.BindClient(cl.Deliver)
	} else {
		cl = rmem.NewClient(&tracedPipe{t: tr, pipe: lb.ClientPipe(), name: spPipeSend, node: node}, cliCfg)
		resp := wire.NewResponder(&tracedPipe{t: tr, pipe: lb.ServerPipe(), name: spServerSend, node: node},
			wire.ResponderConfig{Metrics: srvCfg.Responder}, tr.tracedHandler(node, srv.Handle))
		lb.BindServer(tr.tracedDeliver(spServerDeliver, node, resp.Deliver))
		lb.BindClient(tr.tracedDeliver(spClientDeliver, node, cl.Deliver))
	}
	if err := cl.Connect(); err != nil {
		return nil, err
	}
	t.clients = append(t.clients, cl)
	t.servers = append(t.servers, srv)
	t.closers = append(t.closers, func() { cl.Close() })
	return cl, nil
}

// nullMem completes every op inline with the right bytes and keeps no
// state: what is left is the generator itself.
type nullMem struct{ buf []byte }

func (m *nullMem) Read(addr uint64, n int, cb func([]byte, error)) error {
	fillPattern(m.buf[:n], addr, readK)
	cb(m.buf[:n], nil)
	return nil
}

func (m *nullMem) Write(_ uint64, _ []byte, cb func(error)) error {
	cb(nil)
	return nil
}

func (m *nullMem) RMW(_ uint64, _ memctl.RMWOp, _ []uint64, cb func(uint64, error)) error {
	cb(0, nil)
	return nil
}

// echo fills resp as a memory node holding the read pattern everywhere
// would, without a slab: the handler of the codec and wire rungs.
func echo(req, resp *wire.Msg) {
	if req.Kind == wire.KindRREQ {
		n := int(req.Count)
		if cap(resp.Data) < n {
			resp.Data = make([]byte, n)
		}
		resp.Data = resp.Data[:n]
		fillPattern(resp.Data, req.Addr, readK)
	}
}

// codecMem runs the four codec calls of one round trip (encode request,
// decode it, encode response, decode it) and nothing else.
type codecMem struct {
	id                  uint32
	req, sreq, rsp, out wire.Msg
	b1, b2              []byte
}

func (m *codecMem) roundTrip() error {
	var err error
	m.id++
	m.req.ID = m.id
	if m.b1, err = m.req.AppendEncode(m.b1[:0]); err != nil {
		return err
	}
	if err = wire.DecodeInto(&m.sreq, m.b1); err != nil {
		return err
	}
	m.rsp.Kind, m.rsp.ID, m.rsp.Status = m.sreq.Kind.Response(), m.sreq.ID, wire.StatusOK
	echo(&m.sreq, &m.rsp)
	if m.b2, err = m.rsp.AppendEncode(m.b2[:0]); err != nil {
		return err
	}
	return wire.DecodeInto(&m.out, m.b2)
}

func (m *codecMem) Read(addr uint64, n int, cb func([]byte, error)) error {
	m.req = wire.Msg{Kind: wire.KindRREQ, Addr: addr, Count: uint32(n)}
	if err := m.roundTrip(); err != nil {
		return err
	}
	cb(m.out.Data, nil)
	return nil
}

func (m *codecMem) Write(addr uint64, data []byte, cb func(error)) error {
	m.req = wire.Msg{Kind: wire.KindWREQ, Addr: addr, Count: uint32(len(data)), Data: data}
	m.rsp.Data = m.rsp.Data[:0]
	if err := m.roundTrip(); err != nil {
		return err
	}
	cb(nil)
	return nil
}

func (m *codecMem) RMW(uint64, memctl.RMWOp, []uint64, func(uint64, error)) error {
	return errors.New("codec rung: no RMW")
}

// wireMem is a bare wire.Conn <-> wire.Responder pair over the loopback
// with the echo handler: the reliable layer without rmem on either side.
type wireMem struct {
	conn    *wire.Conn
	req     wire.Msg
	cbRead  func([]byte, error)
	cbWrite func(error)
}

func newWireMem() *wireMem {
	lb := wire.NewLoopback(wire.LoopbackConfig{})
	m := &wireMem{conn: wire.NewConn(lb.ClientPipe(), retryConfig)}
	lb.BindServer(wire.NewResponder(lb.ServerPipe(), wire.ResponderConfig{}, echo).Deliver)
	lb.BindClient(m.conn.Deliver)
	return m
}

// Done implements wire.Completion; one op is in flight at a time, so the
// target itself is the reusable completion record.
func (m *wireMem) Done(r *wire.Msg, err error) {
	if err == nil {
		err = r.Status.Err()
	}
	if cb := m.cbRead; cb != nil {
		m.cbRead = nil
		if err != nil {
			cb(nil, err)
			return
		}
		cb(r.Data, nil)
		return
	}
	cb := m.cbWrite
	m.cbWrite = nil
	cb(err)
}

func (m *wireMem) Read(addr uint64, n int, cb func([]byte, error)) error {
	m.req = wire.Msg{Kind: wire.KindRREQ, Addr: addr, Count: uint32(n)}
	m.cbRead = cb
	_, err := m.conn.CallC(&m.req, m)
	return err
}

func (m *wireMem) Write(addr uint64, data []byte, cb func(error)) error {
	m.req = wire.Msg{Kind: wire.KindWREQ, Addr: addr, Count: uint32(len(data)), Data: data}
	m.cbWrite = cb
	_, err := m.conn.CallC(&m.req, m)
	return err
}

func (m *wireMem) RMW(uint64, memctl.RMWOp, []uint64, func(uint64, error)) error {
	return errors.New("wire rung: no RMW")
}

// prefillChunk keeps prefill datagrams, times the in-flight cap below,
// inside a default UDP socket buffer.
const (
	prefillChunk  = 16 << 10
	prefillWindow = 4
)

// prefill writes the read pattern over the read-only region through the
// target's own write path, at most min(window, prefillWindow) in flight.
// Write captures its payload before returning, so one buffer serves.
func prefill(mem memory, window int, lay layout) error {
	if window > prefillWindow {
		window = prefillWindow
	}
	sem := make(chan struct{}, window)
	errs := make(chan error, 1)
	cb := func(err error) {
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
		<-sem
	}
	buf := make([]byte, prefillChunk)
	for a := uint64(0); a < lay.readHi; a += prefillChunk {
		fillPattern(buf, a, readK)
		sem <- struct{}{}
		if err := mem.Write(a, buf, cb); err != nil {
			return fmt.Errorf("prefill write at %#x: %w", a, err)
		}
	}
	for i := 0; i < window; i++ {
		sem <- struct{}{}
	}
	select {
	case err := <-errs:
		return fmt.Errorf("prefill: %w", err)
	default:
		return nil
	}
}

// sweep reads [lo, hi) of the write region and the counter page back
// through mem and returns how many blocks or counters hold the wrong bytes.
func sweep(mem memory, ver *verifier, lo, hi uint64, counters bool) (bad uint64, err error) {
	buf := make([]byte, prefillChunk)
	for a := lo; a < hi; a += prefillChunk {
		if err := syncRead(mem, a, prefillChunk, buf); err != nil {
			return bad, fmt.Errorf("sweep read at %#x: %w", a, err)
		}
		bad += ver.checkWriteRegion(buf, a)
	}
	if counters {
		page := buf[:8*counterWords]
		if err := syncRead(mem, ver.lay.ctrLo, len(page), page); err != nil {
			return bad, fmt.Errorf("sweep counters: %w", err)
		}
		bad += ver.checkCounters(page)
	}
	return bad, nil
}

// verifyState sweeps the write region and the counters after the run:
// through the target's own read path and, on a cluster, once more per
// replica through the node clients the route table names.
func (t *target) verifyState(ver *verifier) (bad uint64, err error) {
	lay := ver.lay
	if bad, err = sweep(t.mem, ver, lay.writeLo, lay.writeHi, true); err != nil || t.cluster == nil {
		return bad, err
	}
	m := t.cluster.Map()
	for a := lay.writeLo; a < lay.ctrLo+extentBytes; a += extentBytes {
		e, err := m.Locate(a)
		if err != nil {
			return bad, err
		}
		pri, mir := m.Extent(e)
		for _, n := range [2]int{pri, mir} {
			hi, counters := a+extentBytes, false
			if a == lay.ctrLo {
				hi, counters = a, true
			}
			b, err := sweep(t.clients[n], ver, a, hi, counters)
			if err != nil {
				return bad, fmt.Errorf("replica on node %d: %w", n, err)
			}
			bad += b
		}
	}
	return bad, nil
}
