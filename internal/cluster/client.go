package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/memctl"
	"repro/internal/rmem"
	"repro/internal/wire"
)

// Client errors.
var (
	// ErrNoReplica means no in-sync replica of a segment answered: each
	// exhausted its retry budget, or a holder that awaits its copy was the
	// only one left, or no node in the map holds the extent's acked writes.
	// The address range is unreachable until Rebalance copies it in. (When a
	// concrete timeout is available it is returned instead, so
	// errors.Is(err, wire.ErrTimeout) is the usual triage.)
	ErrNoReplica = errors.New("cluster: no reachable replica")
	ErrClosed    = errors.New("cluster: client closed")
)

// Config tunes the cluster client.
type Config struct {
	// Seed determines the extent assignment; equal seeds over equal node
	// counts produce identical maps.
	Seed uint64
	// Size is the cluster address space in bytes. It is rounded down to
	// whole extents (a partial tail extent would route addresses past the
	// configured space) and must fit the smallest node slab, so every node
	// can hold any extent under the identity address mapping. Zero adopts
	// the smallest node slab.
	Size uint64
	// ExtentBytes is the striping grain (default DefaultExtentBytes). It
	// must be a multiple of 8 so an aligned RMW word never spans extents.
	ExtentBytes uint64
	// Metrics receives the cluster_* families. Nil gets a private instance.
	// A supplied instance must have been built for this node count.
	Metrics *Metrics
	// NowNS supplies timestamps for the rebalance-duration histogram
	// (wall or virtual). Nil disables duration measurement.
	NowNS func() int64
}

// Client stripes the flat cluster address space over N rmem.Clients by
// extent and runs the package comment's pipeline: fanOut cuts an op into
// segments and issues them, subOp.done is the kind x outcome table, and the
// op's callback fires when the last segment is in. The routed hot path
// recycles its fan-out records through pools, so steady state allocates
// nothing. The client evicts a node on one rule, the package comment's: a
// replica that timed out while its partner answered the same segment. Every
// other map change is the caller's (MarkDead, Rejoin). Every change rebuilds
// the replica record that routing, failover and Rebalance read, and its
// copies are owed to the caller's Rebalance: the client starts no goroutine
// of its own. The atomicity caveats are the package comment's.
type Client struct {
	nodes   []*rmem.Client
	cfg     Config
	metrics *Metrics

	// ops recycles clusterOp join records and subs recycles subOp fan-out
	// records, so steady-state routed ops allocate nothing.
	ops  sync.Pool
	subs sync.Pool

	mu sync.Mutex
	m  *Map // guarded by mu: the active map
	// rec is the replica record, one entry per extent, rebuilt on every map
	// change and pass and never mutated once published (guarded by mu).
	rec    []replicas
	closed bool // guarded by mu
}

// New builds a cluster client over connected node clients (Connect each
// first: the default Size comes from the advertised geometry). The node
// index in the slice is the node identity in the map, metrics labels, and
// scenario events.
func New(nodes []*rmem.Client, cfg Config) (*Client, error) {
	if cfg.Size == 0 {
		for _, n := range nodes {
			if s := n.Geometry().SlabBytes; cfg.Size == 0 || s < cfg.Size {
				cfg.Size = s
			}
		}
	}
	m, err := NewMap(cfg.Seed, cfg.Size, cfg.ExtentBytes, len(nodes))
	if err != nil {
		return nil, err
	}
	// The map's whole extents, so it, checkRange and Rebalance all agree on
	// the addressable space and never touch past-the-end addresses.
	cfg.Size, cfg.ExtentBytes = m.Size(), m.ExtentBytes()
	for i, n := range nodes {
		// Geometry is only advertised after Connect; zero means unknown.
		if s := n.Geometry().SlabBytes; s > 0 && cfg.Size > s {
			return nil, fmt.Errorf("cluster: size %d exceeds node %d slab %d", cfg.Size, i, s)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil, len(nodes))
	}
	c := &Client{
		nodes:   nodes,
		cfg:     cfg,
		metrics: cfg.Metrics,
		m:       m,
	}
	c.publishLocked(nil)
	c.metrics.Epoch.Set(int64(m.Epoch()))
	return c, nil
}

// Map returns the active route table (immutable; safe to read lock-free).
func (c *Client) Map() *Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// Epoch is the active map epoch.
func (c *Client) Epoch() uint64 { return c.Map().Epoch() }

// Size is the cluster address space in bytes.
func (c *Client) Size() uint64 { return c.cfg.Size }

// ExtentBytes is the striping grain.
func (c *Client) ExtentBytes() uint64 { return c.cfg.ExtentBytes }

// Metrics returns the client's metrics (never nil after New).
func (c *Client) Metrics() *Metrics { return c.metrics }

// MarkDead advances the map epoch without node (a leave/kill event, or the
// client's own eviction of a replica that missed an op its partner
// answered), rebuilds the replica record and counts an eviction. Marking a
// node already out of the map changes nothing.
func (c *Client) MarkDead(node int) error { return c.advance(node, (*Map).Leave) }

// Rejoin re-admits node (a join event); it serves its newly assigned
// extents once Rebalance has copied them in.
func (c *Client) Rejoin(node int) error { return c.advance(node, (*Map).Join) }

// advance installs the active map's successor under step (of node),
// rebuilds the replica record from the old one and counts an eviction when
// node leaves the map. A step that returns the map it was given changes
// nothing.
func (c *Client) advance(node int, step func(*Map, int) (*Map, error)) error {
	c.mu.Lock()
	old := c.m
	cur, err := step(old, node)
	if err == nil && cur != old {
		c.m = cur
		c.publishLocked(c.rec)
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.metrics.Epoch.Set(int64(cur.Epoch()))
	if old.Alive(node) && !cur.Alive(node) {
		c.metrics.Evictions.Inc()
	}
	return nil
}

// Close closes every node client.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// opKind is a subOp's request flavour.
type opKind uint8

const (
	kRead   opKind = iota
	kWrite         // one replica of a write-through pair
	kRMW           // the primary-side atomic
	kMirror        // the RMW result written through to the mirror
)

// segState tracks one segment's replica outcomes.
type segState struct {
	acks     int  // replicas that acked
	fails    int  // replicas that timed out
	missed   bool // a replica timed out:
	missedBy int  // this one
}

// opCB is the caller's callback: exactly one field is set.
type opCB struct {
	read  func([]byte, error)
	write func(error)
	rmw   func(uint64, error)
}

// clusterOp is the pooled join record for one routed operation: it fans out
// to per-segment subOps and dispatches the caller's callback when the last
// one completes. The record (and the data slice handed to a read callback,
// which aliases it) is callback-scoped pooled memory: it recycles as soon as
// the dispatch returns.
type clusterOp struct {
	c *Client

	mu        sync.Mutex
	remaining int        // guarded by mu: outstanding subOps plus the issuer's hold
	err       error      // guarded by mu: first fatal (non-deadline) failure
	dlErr     error      // guarded by mu: last deadline, reported when a segment loses all replicas
	failovers int        // guarded by mu: re-routed segments, flushed to metrics at completion
	segs      []segState // guarded by mu: per-segment replica outcomes (capacity reused)
	cb        opCB       // guarded by mu: cleared when the fan-out fails and the error goes back inline

	// data is the read aggregation buffer and rmwVal the RMW result. Both
	// belong to the sub-completions until the last subDone: reads copy into
	// disjoint segment ranges of data, the op's one RMW sub stores rmwVal.
	// data is owned by the record and reused across recycles.
	data   []byte
	rmwVal uint64
}

// subOp is the pooled per-segment request record. Its rmem callbacks are
// bound once at allocation and reused across recycles, so routing a segment
// allocates nothing in steady state.
type subOp struct {
	c  *Client
	op *clusterOp

	seg     int // index into op.segs
	kind    opKind
	node    int // current target
	addr    uint64
	n       int
	off     int    // read destination offset in op.data
	wdata   []byte // write payload (aliases caller data; captured into the datagram at issue)
	rmwOp   memctl.RMWOp
	rmwArgs []uint64 // aliases caller args; captured at issue
	attempt int      // 0 on the routed target, 1 after failover
	inSync  bool     // node holds every acked write: its ack counts
	val8    [8]byte  // kMirror payload: the computed RMW result

	readCB  func([]byte, error)
	writeCB func(error)
	rmwCB   func(uint64, error)
}

// getOp pops a pooled join record.
func (c *Client) getOp() *clusterOp {
	if v := c.ops.Get(); v != nil {
		return v.(*clusterOp)
	}
	//edmlint:allow hotpath pool miss; steady state recycles
	return &clusterOp{c: c}
}

// getSub pops a pooled fan-out record; a pool miss binds the completion
// closures once for the record's lifetime. All three forward to done.
func (c *Client) getSub() *subOp {
	if v := c.subs.Get(); v != nil {
		return v.(*subOp)
	}
	//edmlint:allow hotpath pool miss; steady state recycles
	s := &subOp{c: c}
	s.readCB = func(d []byte, err error) { s.done(d, 0, err) }
	s.writeCB = func(err error) { s.done(nil, 0, err) }
	s.rmwCB = func(v uint64, err error) { s.done(nil, v, err) }
	return s
}

// route reads the replica record once; the op is routed entirely under it
// even if a map change replaces it mid-flight (failover re-resolves).
//
//edmlint:hotpath one record read per routed op
func (c *Client) route() ([]replicas, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	return c.rec, nil
}

// retarget re-resolves s's extent under the CURRENT record (a map change
// may have replaced it since the op was routed) and points s at the first
// routed node that is not s's own. A failover (a read or an RMW whose node
// timed out) takes only a node in sync; an RMW's write-through goes to
// either. Under the routing record the primary IS s.node, so a failover
// reaches the mirror; after a re-home the record's primary is the replica
// that holds the data, and an uncopied new holder is never a failover's.
func (c *Client) retarget(s *subOp, failover bool) bool {
	rec, err := c.route()
	if err != nil {
		return false
	}
	r := &rec[s.addr/c.cfg.ExtentBytes]
	for i, n := range r.node {
		if in := i == 0 || r.in; !r.out && n != s.node && (in || !failover) {
			s.node, s.inSync = n, in
			return true
		}
	}
	return false
}

// issueSub routes one segment request to its node client.
//
//edmlint:hotpath one issue per routed segment
func (c *Client) issueSub(s *subOp) error {
	c.metrics.NodeOps[s.node].Inc()
	nc := c.nodes[s.node]
	switch s.kind {
	case kRead:
		return nc.Read(s.addr, s.n, s.readCB)
	case kRMW:
		return nc.RMW(s.addr, s.rmwOp, s.rmwArgs, s.rmwCB)
	default: // kWrite, kMirror
		return nc.Write(s.addr, s.wdata, s.writeCB)
	}
}

// done is the completion of every segment request: the package comment's
// kind x outcome table, in its row order. A request that goes out again (to
// the other replica after a deadline, or as the kMirror write-through of an
// RMW that changed memory) keeps its record and its remaining count; every
// other outcome ends in subDone.
//
//edmlint:hotpath one completion per routed segment
func (s *subOp) done(data []byte, value uint64, err error) {
	c, o := s.c, s.op
	fatal, again := false, false // again: the record goes out once more, to the extent's other replica
	switch {
	case err == nil:
		switch s.kind {
		case kRead:
			// data is transient, so the copy happens here, inside the rmem
			// callback.
			copy(o.data[s.off:s.off+s.n], data)
		case kRMW:
			o.rmwVal = value
			if stored, ok := rmwStore(s.rmwOp, s.rmwArgs, value); ok && s.attempt == 0 {
				binary.LittleEndian.PutUint64(s.val8[:], stored)
				again = true
			}
		}
	case errors.Is(err, wire.ErrTimeout):
		again = s.attempt == 0 && (s.kind == kRead || s.kind == kRMW)
	default:
		fatal = true
	}
	if again {
		if from := s.node; c.retarget(s, err != nil) {
			o.mu.Lock()
			if err == nil {
				// The primary's ack is banked; the record carries the
				// remaining count on as the mirror write-through.
				o.segs[s.seg].acks++
				s.kind, s.wdata = kMirror, s.val8[:]
			} else {
				// The node that timed out is gone if the other replica
				// answers; an RMW's may also have missed the atomic the
				// other replica now runs.
				o.failovers++
				s.attempt = 1
				o.segs[s.seg].missed, o.segs[s.seg].missedBy = true, from
			}
			o.mu.Unlock()
			if err = c.issueSub(s); err == nil {
				return // still outstanding
			}
			fatal = true
		}
	}
	o.subDone(s, err, fatal)
}

// subDone takes back one remaining count and finishes the op on the last.
// With a segment's record s, which it recycles (the bound closures stay):
// err nil acks the segment when s's node is in sync, a deadline marks a
// replica miss, fatal an error that fails the whole op. With no segment it
// is the issuer's release after fan-out: a non-nil err (window exhausted)
// has gone back to the caller inline, so the callback must never fire. Segments issued around the
// failure still land; a partially issued write is not rolled back, matching
// the split-op atomicity caveat.
//
//edmlint:hotpath one call per completed segment, one per routed op
func (o *clusterOp) subDone(s *subOp, err error, fatal bool) {
	o.mu.Lock()
	switch {
	case s == nil:
		if err != nil {
			o.cb = opCB{}
		}
	case err == nil:
		if s.inSync {
			o.segs[s.seg].acks++
		}
	case fatal:
		if o.err == nil {
			o.err = err
		}
	default:
		o.segs[s.seg].fails++
		o.segs[s.seg].missed, o.segs[s.seg].missedBy = true, s.node
		o.dlErr = err
	}
	o.remaining--
	fire := o.remaining == 0
	o.mu.Unlock()
	if s != nil {
		s.op, s.wdata, s.rmwArgs = nil, nil, nil
		o.c.subs.Put(s)
	}
	if fire {
		o.finish()
	}
}

// finish resolves the op outcome, recycles the record, and dispatches the
// caller's callback.
//
//edmlint:hotpath one call per routed op
func (o *clusterOp) finish() {
	c := o.c
	o.mu.Lock()
	err, failovers := o.err, o.failovers
	for _, sg := range o.segs {
		switch {
		case sg.acks == 0:
			if err == nil {
				if err = o.dlErr; err == nil {
					err = ErrNoReplica
				}
			}
		case sg.fails > 0:
			// A replica miss on a segment that still acked is a failover
			// too: the op survived on one home of a dual-homed extent. (A
			// segment never counts twice: a re-routed sub reaches subDone
			// only with its final outcome, so a re-route that acked leaves
			// fails at zero.)
			failovers++
		}
		if sg.missed && sg.acks > 0 {
			// The replica that timed out while its partner answered leaves
			// the map before the callback fires. When it cannot (it is one
			// of the last two alive), a read still returns its data: only
			// a write, an RMW or a write-through can leave a stale replica
			// behind. (Lock order: o.mu, then c.mu; nothing takes them the
			// other way round.)
			if eerr := c.MarkDead(sg.missedBy); eerr != nil && err == nil && o.cb.read == nil {
				//edmlint:allow hotpath only an op whose missed replica is one of the last two alive
				err = fmt.Errorf("cluster: node %d missed an acked write and cannot be evicted: %w", sg.missedBy, eerr)
			}
		}
	}
	if failovers > 0 {
		c.metrics.Failovers.Add(uint64(failovers))
	}
	cb, data, rmwVal := o.cb, o.data, o.rmwVal
	o.cb, o.err, o.dlErr, o.failovers = opCB{}, nil, nil, 0
	o.mu.Unlock()
	if cb.read != nil && err == nil {
		// The record is lent to the callback (the data slice aliases its
		// buffer) and recycles only after the dispatch returns.
		cb.read(data, nil)
		c.ops.Put(o)
		return
	}
	c.ops.Put(o)
	switch {
	case cb.read != nil:
		cb.read(nil, err)
	case cb.write != nil:
		cb.write(err)
	case cb.rmw != nil && err != nil:
		cb.rmw(0, err)
	case cb.rmw != nil:
		cb.rmw(rmwVal, nil)
	}
}

// rmwStore is the word a successful RMW left in memory, from its opcode,
// args and result, and whether the atomic stored one. A CAS stores args[1]
// only when it swapped (its result is 1 or 0, not the old word); every other
// op's result is the old word, and it stores memctl.Apply's value even when
// that equals the old one. It is what the mirror write-through stores.
func rmwStore(op memctl.RMWOp, args []uint64, result uint64) (val uint64, ok bool) {
	if op == memctl.OpCAS {
		return args[1], result == 1
	}
	val, _ = memctl.Apply(op, result, args)
	return val, true
}

// fanOut routes one operation: range check, one record read, then one
// segment per extent touched (an RMW is one segment whatever its address: a
// word that straddles an extent boundary is the node's to refuse), each
// issued to its record's primary and, for writes, its mirror. Every segment
// and the issuer's own hold are charged before the first issue, so a
// synchronous transport (loopback) cannot finish the op mid-fan-out. An issue that fails inline
// (window exhausted) is returned inline and silences cb.
//
//edmlint:hotpath one call per routed op
func (c *Client) fanOut(cb opCB, kind opKind, addr uint64, n int, data []byte, rmwOp memctl.RMWOp, args []uint64) error {
	if n < 0 || addr+uint64(n) > c.cfg.Size || addr+uint64(n) < addr {
		return fmt.Errorf("%w: [%d, %d+%d)", ErrBadExtent, addr, addr, n)
	}
	rec, err := c.route()
	if err != nil {
		return err
	}
	eb := c.cfg.ExtentBytes
	nseg, homes := 1, 1
	if kind != kRMW && n > 0 {
		nseg = int((addr+uint64(n)-1)/eb-addr/eb) + 1
	}
	if nseg > 1 {
		c.metrics.SplitOps.Inc()
	}
	if kind == kWrite {
		homes = 2
	}
	o := c.getOp()
	if kind == kRead {
		if cap(o.data) < n {
			//edmlint:allow hotpath buffer growth; steady state reuses capacity
			o.data = make([]byte, n)
		}
		o.data = o.data[:n]
	}
	o.mu.Lock()
	o.cb = cb
	o.segs = o.segs[:0]
	for i := 0; i < nseg; i++ {
		o.segs = append(o.segs, segState{})
	}
	o.remaining = homes*nseg + 1 // +1: the issuer's hold
	o.mu.Unlock()
	var issueErr error
	for seg, off := 0, 0; seg < nseg; seg++ {
		ln := n - off
		if rem := int(eb - addr%eb); kind != kRMW && ln > rem {
			ln = rem
		}
		r := &rec[addr/eb]
		for i := 0; i < homes; i++ {
			s := c.getSub()
			s.op, s.seg = o, seg
			s.kind, s.node, s.attempt, s.inSync = kind, r.node[i], 0, i == 0 || r.in
			s.addr, s.n, s.off = addr, ln, off
			s.rmwOp, s.rmwArgs = rmwOp, args
			if kind == kWrite {
				s.wdata = data[off : off+ln]
			}
			if r.out {
				// No node in the map holds the extent's acked writes: the
				// segment fails, through the callback, rather than serve or
				// take bytes that Rebalance would copy over.
				o.subDone(s, ErrNoReplica, true)
				continue
			}
			if err := c.issueSub(s); err != nil {
				o.subDone(s, err, true)
				if issueErr == nil {
					issueErr = err
				}
			}
		}
		off += ln
		addr += uint64(ln)
	}
	o.subDone(nil, issueErr, false)
	return issueErr
}

// Read issues an asynchronous routed read of n bytes at addr: one segment
// per extent touched, each to its primary, failing over to the mirror on a
// retry-budget timeout. cb's data slice aliases the pooled record and is
// only valid for the duration of the callback — copy to retain.
//
//edmlint:hotpath
//edmlint:owned callback the data slice aliases the pooled aggregation buffer
func (c *Client) Read(addr uint64, n int, cb func([]byte, error)) error {
	return c.fanOut(opCB{read: cb}, kRead, addr, n, nil, 0, nil)
}

// Write issues an asynchronous routed write-through: each segment goes to
// its extent's primary and mirror, and the op succeeds while every segment
// is acked by at least one replica with no fatal error. data is captured
// into the datagrams before Write returns.
//
//edmlint:hotpath
func (c *Client) Write(addr uint64, data []byte, cb func(error)) error {
	return c.fanOut(opCB{write: cb}, kWrite, addr, len(data), data, 0, nil)
}

// RMW issues an asynchronous routed atomic: it executes on the extent's
// primary, and the computed stored value is written through to the mirror
// before the callback fires. On a primary retry-budget timeout the atomic
// fails over to the mirror. An RMW is always a single segment: an aligned
// word never spans extents, and an unaligned one is the node's to refuse.
//
//edmlint:hotpath
func (c *Client) RMW(addr uint64, op memctl.RMWOp, args []uint64, cb func(uint64, error)) error {
	return c.fanOut(opCB{rmw: cb}, kRMW, addr, 8, nil, op, args)
}
