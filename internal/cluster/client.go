package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/memctl"
	"repro/internal/rmem"
)

// Client errors.
var (
	// ErrNoReplica means every replica of a segment exhausted its retry
	// budget: the address range is unreachable until a rebalance re-homes
	// it. (When a concrete deadline error is available it is returned
	// instead, so errors.Is(err, rmem.ErrDeadline) is the usual triage.)
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
	// AutoEvict, when positive, declares a node dead after that many
	// consecutive retry-budget timeouts: the map epoch advances without it
	// and a background rebalance re-mirrors its extents. Zero leaves
	// membership entirely to the caller (the deterministic scenario
	// driver).
	AutoEvict int
}

// Client stripes the flat cluster address space over N rmem.Clients by
// extent: reads route to the extent's primary and fail over to its mirror
// on retry-budget timeout; writes go through to primary and mirror and
// succeed while at least one replica acks; RMWs execute on the primary and
// write the computed value through to the mirror. Ops that span an extent
// boundary are split and completed as one. The routed hot path recycles its
// fan-out records through pools, so steady state allocates nothing.
//
// Atomicity caveat (the cross-shard note one level up): a split op is not
// atomic across extents, and an RMW is atomic only on its primary — the
// mirror's copy is a write-through that can lag or be lost with the
// primary. Failover assumes fail-stop nodes: a merely-slow primary that
// executes a timed-out RMW after the client failed over can double-apply.
type Client struct {
	nodes   []*rmem.Client
	cfg     Config
	metrics *Metrics

	// ops recycles clusterOp join records and subs recycles subOp fan-out
	// records, so steady-state routed ops allocate nothing.
	ops  sync.Pool
	subs sync.Pool

	mu         sync.Mutex
	m          *Map  // guarded by mu: the active route table
	streak     []int // guarded by mu: consecutive deadline completions per node (auto-evict)
	pendingOld *Map  // guarded by mu: baseline of a failed background rebalance awaiting retry
	rebalBusy  bool  // guarded by mu: a background rebalance retry is in flight
	closed     bool  // guarded by mu
}

// New builds a cluster client over connected node clients (Connect each
// first: the default Size comes from the advertised geometry). The node
// index in the slice is the node identity in the map, metrics labels, and
// scenario events.
func New(nodes []*rmem.Client, cfg Config) (*Client, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("%w: %d", ErrTooFewNodes, len(nodes))
	}
	if cfg.ExtentBytes == 0 {
		cfg.ExtentBytes = DefaultExtentBytes
	}
	if cfg.ExtentBytes%8 != 0 {
		return nil, fmt.Errorf("cluster: extent size %d not a multiple of 8", cfg.ExtentBytes)
	}
	if cfg.Size == 0 {
		for _, n := range nodes {
			if s := n.Geometry().SlabBytes; cfg.Size == 0 || s < cfg.Size {
				cfg.Size = s
			}
		}
	}
	// Whole extents only, so the map, checkRange, and Rebalance all agree
	// on the addressable space and never touch past-the-end addresses.
	cfg.Size -= cfg.Size % cfg.ExtentBytes
	if cfg.Size == 0 {
		return nil, fmt.Errorf("cluster: size smaller than one extent (%d)", cfg.ExtentBytes)
	}
	for i, n := range nodes {
		// Geometry is only advertised after Connect; zero means unknown.
		if s := n.Geometry().SlabBytes; s > 0 && cfg.Size > s {
			return nil, fmt.Errorf("cluster: size %d exceeds node %d slab %d", cfg.Size, i, s)
		}
	}
	m, err := NewMap(cfg.Seed, cfg.Size, cfg.ExtentBytes, len(nodes))
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil, len(nodes))
	}
	c := &Client{
		nodes:   nodes,
		cfg:     cfg,
		metrics: cfg.Metrics,
		m:       m,
		streak:  make([]int, len(nodes)),
	}
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
func (c *Client) Size() uint64 { return c.Map().Size() }

// ExtentBytes is the striping grain.
func (c *Client) ExtentBytes() uint64 { return c.cfg.ExtentBytes }

// Metrics returns the client's metrics (never nil after New).
func (c *Client) Metrics() *Metrics { return c.metrics }

// ApplyMap installs a successor route table; in-flight ops finish under the
// map they were routed with, new ops route under m.
func (c *Client) ApplyMap(m *Map) error {
	if m.Nodes() != len(c.nodes) {
		return fmt.Errorf("cluster: map for %d nodes applied to %d-node client", m.Nodes(), len(c.nodes))
	}
	c.mu.Lock()
	c.m = m
	c.mu.Unlock()
	c.metrics.Epoch.Set(int64(m.Epoch()))
	return nil
}

// MarkDead advances the map epoch without node (a leave/kill event) and
// returns the (old, new) maps for a follow-up Rebalance. Marking an
// already-dead node is a pure epoch bump.
func (c *Client) MarkDead(node int) (old, cur *Map, err error) {
	c.mu.Lock()
	old = c.m
	cur, err = old.Leave(node)
	if err == nil {
		c.m = cur
		c.streak[node] = 0
	}
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	c.metrics.Evictions.Inc()
	c.metrics.Epoch.Set(int64(cur.Epoch()))
	return old, cur, nil
}

// Rejoin re-admits node (a join event) and returns the (old, new) maps for
// a follow-up Rebalance that copies the node's newly assigned extents in.
func (c *Client) Rejoin(node int) (old, cur *Map, err error) {
	c.mu.Lock()
	old = c.m
	cur, err = old.Join(node)
	if err == nil {
		c.m = cur
		c.streak[node] = 0
	}
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	c.metrics.Epoch.Set(int64(cur.Epoch()))
	return old, cur, nil
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

// noteOK resets node's deadline streak (auto-evict bookkeeping).
//
//edmlint:hotpath one call per successful sub-completion
func (c *Client) noteOK(node int) {
	if c.cfg.AutoEvict <= 0 {
		return
	}
	c.mu.Lock()
	c.streak[node] = 0
	c.mu.Unlock()
}

// noteDeadline counts a retry-budget timeout against node and, at the
// auto-evict threshold, kicks off an eviction + rebalance in the
// background. The threshold fires on equality so one burst of timeouts
// evicts once. Deadlines below the threshold re-arm the retry of any
// earlier failed background rebalance, so affected extents do not stay
// single-homed until the next membership change.
func (c *Client) noteDeadline(node int) {
	if c.cfg.AutoEvict <= 0 {
		return
	}
	c.mu.Lock()
	c.streak[node]++
	hit := c.streak[node] == c.cfg.AutoEvict && c.m.Alive(node) && c.m.AliveCount() > 2
	retry := !hit && c.pendingOld != nil && !c.rebalBusy
	if retry {
		c.rebalBusy = true
	}
	c.mu.Unlock()
	if hit {
		go c.evict(node)
	} else if retry {
		go c.retryRebalance()
	}
}

// evict is the auto-evict driver: epoch advance, then re-mirror.
func (c *Client) evict(node int) {
	old, cur, err := c.MarkDead(node)
	if err != nil {
		return
	}
	c.rebalancePass(old, cur)
}

// retryRebalance re-runs a failed background rebalance against the current
// map. The caller (noteDeadline) has already set rebalBusy.
func (c *Client) retryRebalance() {
	c.mu.Lock()
	cur := c.m
	c.mu.Unlock()
	c.rebalancePass(cur, cur)
	c.mu.Lock()
	c.rebalBusy = false
	c.mu.Unlock()
}

// rebalancePass runs one background rebalance, widening the baseline to
// that of any earlier failed pass so its outstanding copies are retried
// too. A failure bumps cluster_rebalance_errors_total and keeps the
// baseline for the next retry (a later deadline or epoch change).
func (c *Client) rebalancePass(old, cur *Map) {
	c.mu.Lock()
	if c.pendingOld != nil {
		old = c.pendingOld
		c.pendingOld = nil
	}
	c.mu.Unlock()
	if _, err := c.Rebalance(old, cur); err != nil {
		c.metrics.RebalanceErrors.Inc()
		c.mu.Lock()
		if c.pendingOld == nil {
			c.pendingOld = old
		}
		c.mu.Unlock()
	}
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
	acks  int // replicas that acked
	fails int // replicas that timed out
}

// clusterOp is the pooled join record for one routed operation: it fans out
// to per-segment subOps and dispatches the caller's callback when the last
// one completes. Exactly one cb* field is set per use. The record (and the
// data slice handed to a read callback, which aliases it) is callback-scoped
// pooled memory: it recycles as soon as the dispatch returns.
type clusterOp struct {
	c *Client

	mu        sync.Mutex
	remaining int        // guarded by mu: outstanding subOps plus the issuer's hold
	err       error      // guarded by mu: first hard (non-deadline) failure
	dlErr     error      // guarded by mu: last deadline, reported when a segment loses all replicas
	silent    bool       // guarded by mu: issue failed, error went to the caller inline — no dispatch
	failovers int        // guarded by mu: re-routed segments, flushed to metrics at completion
	segs      []segState // guarded by mu: per-segment replica outcomes (capacity reused)
	rmwVal    uint64     // guarded by mu: the RMW result

	// data is the read aggregation buffer. It is owned by the record and
	// reused across recycles; sub-completions copy into disjoint segment
	// ranges before taking mu.
	data []byte

	cbRead  func([]byte, error)
	cbWrite func(error)
	cbRMW   func(uint64, error)
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
	return new(clusterOp)
}

// getSub pops a pooled fan-out record; a pool miss binds the completion
// closures once for the record's lifetime.
func (c *Client) getSub() *subOp {
	if v := c.subs.Get(); v != nil {
		return v.(*subOp)
	}
	//edmlint:allow hotpath pool miss; steady state recycles
	s := new(subOp)
	s.readCB = func(d []byte, err error) { s.onRead(d, err) }
	s.writeCB = func(err error) { s.onWrite(err) }
	s.rmwCB = func(v uint64, err error) { s.onRMW(v, err) }
	return s
}

// putSub recycles a fan-out record (the bound closures stay).
//
//edmlint:hotpath one recycle per completed segment
func (c *Client) putSub(s *subOp) {
	s.op = nil
	s.wdata = nil
	s.rmwArgs = nil
	c.subs.Put(s)
}

// route reads the active map once; the op is routed entirely under that
// epoch even if it advances mid-flight (failover re-resolves).
//
//edmlint:hotpath one map read per routed op
func (c *Client) route() (*Map, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	return c.m, nil
}

// altFor re-resolves s's extent under the CURRENT map (the epoch may have
// advanced since the op was routed) and returns the best replica that is
// not the node that just timed out.
func (c *Client) altFor(s *subOp) (int, bool) {
	m, err := c.route()
	if err != nil {
		return 0, false
	}
	e, err := m.Locate(s.addr)
	if err != nil {
		return 0, false
	}
	pri, mir := m.Extent(e)
	// Try the current primary first. Under the routing epoch the primary IS
	// s.node, so the n != s.node filter falls through to the mirror (the
	// usual failover); after a re-home the promoted primary is the old
	// mirror — the replica that holds the data — while the new mirror may be
	// an empty node the rebalance has not reached yet, and must not serve.
	for _, n := range [2]int{pri, mir} {
		if n >= 0 && n != s.node && m.Alive(n) {
			return n, true
		}
	}
	return 0, false
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

// subDone records one segment completion: err nil acks the segment, a
// deadline marks a replica miss, hard marks an operation-fatal error. It
// drops one remaining count and finishes the op on the last one.
//
//edmlint:hotpath one call per completed segment
func (o *clusterOp) subDone(seg int, err error, hard bool) {
	o.mu.Lock()
	switch {
	case err == nil:
		o.segs[seg].acks++
	case hard:
		if o.err == nil {
			o.err = err
		}
	default:
		o.segs[seg].fails++
		o.dlErr = err
	}
	o.remaining--
	fire := o.remaining == 0
	o.mu.Unlock()
	if fire {
		o.finish()
	}
}

// ackSeg acks a segment without consuming a remaining count (the RMW
// primary ack, while its mirror write-through is still outstanding).
func (o *clusterOp) ackSeg(seg int) {
	o.mu.Lock()
	o.segs[seg].acks++
	o.mu.Unlock()
}

// addFailover counts one re-routed segment.
func (o *clusterOp) addFailover() {
	o.mu.Lock()
	o.failovers++
	o.mu.Unlock()
}

// setRMW stores the RMW result.
func (o *clusterOp) setRMW(v uint64) {
	o.mu.Lock()
	o.rmwVal = v
	o.mu.Unlock()
}

// releaseHold drops the issuer's remaining count after fan-out. A non-nil
// issueErr (window exhausted, client closed) silences the op: the error
// goes back to the caller inline and the callback never fires. Segments
// issued before the failure still land — a partially issued write is not
// rolled back, matching the split-op atomicity caveat.
//
//edmlint:hotpath one call per routed op
func (o *clusterOp) releaseHold(issueErr error) error {
	o.mu.Lock()
	if issueErr != nil {
		o.silent = true
		if o.err == nil {
			o.err = issueErr
		}
	}
	o.remaining--
	fire := o.remaining == 0
	o.mu.Unlock()
	if fire {
		o.finish()
	}
	return issueErr
}

// finish resolves the op outcome, recycles the record, and dispatches the
// caller's callback.
//
//edmlint:hotpath one call per routed op
func (o *clusterOp) finish() {
	c := o.c
	o.mu.Lock()
	err := o.err
	if err == nil {
		for i := range o.segs {
			if o.segs[i].acks == 0 {
				err = o.dlErr
				if err == nil {
					err = ErrNoReplica
				}
				break
			}
		}
	}
	failovers := o.failovers
	// Replica misses on segments that still acked are failovers too: the op
	// survived on one home of a dual-homed extent. (A segment never counts
	// twice — an explicitly re-routed sub only reaches subDone with its
	// final outcome, so a re-route that acked leaves fails at zero.)
	for i := range o.segs {
		if o.segs[i].acks > 0 && o.segs[i].fails > 0 {
			failovers++
		}
	}
	if failovers > 0 {
		c.metrics.Failovers.Add(uint64(failovers))
	}
	silent := o.silent
	data, rmwVal := o.data, o.rmwVal
	cbRead, cbWrite, cbRMW := o.cbRead, o.cbWrite, o.cbRMW
	n := 0
	if cbRead != nil {
		n = len(data)
	}
	o.silent = false
	o.err, o.dlErr = nil, nil
	o.failovers = 0
	o.cbRead, o.cbWrite, o.cbRMW = nil, nil, nil
	o.mu.Unlock()
	if silent {
		c.ops.Put(o)
		return
	}
	switch {
	case cbRead != nil:
		// The record is lent to the callback (the data slice aliases its
		// buffer) and recycles only after the dispatch returns.
		if err != nil {
			c.ops.Put(o)
			cbRead(nil, err)
			return
		}
		cbRead(data[:n], nil)
		c.ops.Put(o)
	case cbWrite != nil:
		c.ops.Put(o)
		cbWrite(err)
	case cbRMW != nil:
		c.ops.Put(o)
		if err != nil {
			cbRMW(0, err)
			return
		}
		cbRMW(rmwVal, nil)
	}
}

// onRead is the kRead completion: copy the segment into the aggregation
// buffer, or fail over to the other replica on a retry-budget timeout.
//
//edmlint:hotpath one completion per read segment
func (s *subOp) onRead(d []byte, err error) {
	c, op, seg := s.c, s.op, s.seg
	if err == nil {
		c.noteOK(s.node)
		// Disjoint per-segment range of the record-owned buffer; the copy
		// happens inside the rmem callback because d is transient.
		copy(op.data[s.off:s.off+s.n], d)
		c.putSub(s)
		op.subDone(seg, nil, false)
		return
	}
	if errors.Is(err, rmem.ErrDeadline) {
		c.noteDeadline(s.node)
		if s.attempt == 0 {
			if alt, ok := c.altFor(s); ok {
				s.attempt = 1
				s.node = alt
				op.addFailover()
				err2 := c.issueSub(s)
				if err2 == nil {
					return // re-routed; still outstanding
				}
				c.putSub(s)
				op.subDone(seg, err2, true)
				return
			}
		}
		c.putSub(s)
		op.subDone(seg, err, false)
		return
	}
	c.putSub(s)
	op.subDone(seg, err, true)
}

// onWrite is the kWrite/kMirror completion: one replica of a write-through
// pair (or of an RMW's mirror copy) landing or missing.
//
//edmlint:hotpath one completion per write replica
func (s *subOp) onWrite(err error) {
	c, op, seg := s.c, s.op, s.seg
	switch {
	case err == nil:
		c.noteOK(s.node)
		c.putSub(s)
		op.subDone(seg, nil, false)
	case errors.Is(err, rmem.ErrDeadline):
		c.noteDeadline(s.node)
		c.putSub(s)
		op.subDone(seg, err, false)
	default:
		c.putSub(s)
		op.subDone(seg, err, true)
	}
}

// onRMW is the kRMW completion: on success the result is recorded and the
// computed stored value written through to the mirror; on a retry-budget
// timeout the atomic fails over to the other replica.
//
//edmlint:hotpath one completion per RMW
func (s *subOp) onRMW(v uint64, err error) {
	c, op, seg := s.c, s.op, s.seg
	switch {
	case err == nil:
		c.noteOK(s.node)
		op.setRMW(v)
		newVal, mutated := rmwStore(s.rmwOp, s.rmwArgs, v)
		if s.attempt == 0 && mutated {
			if mir, ok := c.altFor(s); ok {
				// The primary ack is banked; the same record becomes the
				// mirror write-through and carries the remaining count.
				op.ackSeg(seg)
				s.kind = kMirror
				s.node = mir
				binary.LittleEndian.PutUint64(s.val8[:], newVal)
				s.wdata = s.val8[:]
				err2 := c.issueSub(s)
				if err2 == nil {
					return
				}
				c.putSub(s)
				op.subDone(seg, err2, true)
				return
			}
		}
		c.putSub(s)
		op.subDone(seg, nil, false)
	case errors.Is(err, rmem.ErrDeadline):
		c.noteDeadline(s.node)
		if s.attempt == 0 {
			if alt, ok := c.altFor(s); ok {
				// Atomic failover: execute on the surviving replica. No
				// write-through follows — the timed-out home is presumed
				// dead (fail-stop), and a rebalance will re-home the extent.
				s.attempt = 1
				s.node = alt
				op.addFailover()
				err2 := c.issueSub(s)
				if err2 == nil {
					return
				}
				c.putSub(s)
				op.subDone(seg, err2, true)
				return
			}
		}
		c.putSub(s)
		op.subDone(seg, err, false)
	default:
		c.putSub(s)
		op.subDone(seg, err, true)
	}
}

// rmwStore computes the value an RMW left in memory from its opcode, args,
// and result (the memctl menu semantics), and whether memory changed at
// all. It is what the mirror write-through stores.
func rmwStore(op memctl.RMWOp, args []uint64, result uint64) (val uint64, mutated bool) {
	switch op {
	case memctl.OpCAS:
		if result == 1 && len(args) >= 2 {
			return args[1], true
		}
		return 0, false
	case memctl.OpFetchAdd:
		return result + args[0], true
	case memctl.OpSwap:
		return args[0], true
	case memctl.OpAnd:
		return result & args[0], true
	case memctl.OpOr:
		return result | args[0], true
	case memctl.OpXor:
		return result ^ args[0], true
	case memctl.OpMin:
		if int64(args[0]) < int64(result) {
			return args[0], true
		}
		return result, true
	case memctl.OpMax:
		if int64(args[0]) > int64(result) {
			return args[0], true
		}
		return result, true
	}
	return 0, false
}

// checkRange bounds [addr, addr+n) against the cluster address space.
func (c *Client) checkRange(addr uint64, n int) error {
	if n < 0 || addr+uint64(n) > c.cfg.Size || addr+uint64(n) < addr {
		return fmt.Errorf("%w: [%d, %d+%d)", ErrBadExtent, addr, addr, n)
	}
	return nil
}

// prep charges the op with its segment count and the issuer's hold. It runs
// before any sub is issued so a synchronous transport (loopback) cannot
// finish the op mid-fan-out.
func (o *clusterOp) prep(nseg int) {
	o.mu.Lock()
	o.segs = o.segs[:0]
	for i := 0; i < nseg; i++ {
		o.segs = append(o.segs, segState{})
	}
	o.mu.Unlock()
}

// charge adds outstanding remaining counts under the lock.
func (o *clusterOp) charge(n int) {
	o.mu.Lock()
	o.remaining += n
	o.mu.Unlock()
}

// segments walks [addr, addr+n) in extent-sized pieces, calling visit with
// each (segment index, address, length, offset).
//
//edmlint:hotpath one walk per routed op
func (c *Client) segments(addr uint64, n int, visit func(seg int, a uint64, ln, off int)) int {
	eb := c.cfg.ExtentBytes
	seg, off := 0, 0
	for {
		ln := n - off
		if rem := int(eb - addr%eb); ln > rem {
			ln = rem
		}
		visit(seg, addr, ln, off)
		seg++
		off += ln
		addr += uint64(ln)
		if off >= n {
			return seg
		}
	}
}

// nsegs counts the extent-sized pieces of [addr, addr+n).
func (c *Client) nsegs(addr uint64, n int) int {
	eb := c.cfg.ExtentBytes
	if n <= 0 {
		return 1
	}
	return int((addr+uint64(n)-1)/eb-addr/eb) + 1
}

// Read issues an asynchronous routed read of n bytes at addr: one segment
// per extent touched, each to its primary, failing over to the mirror on a
// retry-budget timeout. cb's data slice aliases the pooled record and is
// only valid for the duration of the callback — copy to retain.
//
//edmlint:hotpath
//edmlint:owned callback the data slice aliases the pooled aggregation buffer
func (c *Client) Read(addr uint64, n int, cb func([]byte, error)) error {
	if err := c.checkRange(addr, n); err != nil {
		return err
	}
	m, err := c.route()
	if err != nil {
		return err
	}
	op := c.getOp()
	op.c = c
	op.cbRead = cb
	if cap(op.data) < n {
		//edmlint:allow hotpath buffer growth; steady state reuses capacity
		op.data = make([]byte, n)
	}
	op.data = op.data[:n]
	nseg := c.nsegs(addr, n)
	if nseg > 1 {
		c.metrics.SplitOps.Inc()
	}
	op.prep(nseg)
	op.charge(nseg + 1) // +1: the issuer's hold
	var issueErr error
	c.segments(addr, n, func(seg int, a uint64, ln, off int) {
		e, _ := m.Locate(a)
		pri, _ := m.Extent(e)
		s := c.getSub()
		s.c, s.op, s.seg = c, op, seg
		s.kind, s.node, s.attempt = kRead, pri, 0
		s.addr, s.n, s.off = a, ln, off
		if err := c.issueSub(s); err != nil {
			c.putSub(s)
			op.subDone(seg, err, true)
			if issueErr == nil {
				issueErr = err
			}
		}
	})
	return op.releaseHold(issueErr)
}

// Write issues an asynchronous routed write-through: each segment goes to
// its extent's primary and mirror, and the op succeeds while every segment
// is acked by at least one replica with no hard error. data is captured
// into the datagrams before Write returns.
//
//edmlint:hotpath
func (c *Client) Write(addr uint64, data []byte, cb func(error)) error {
	n := len(data)
	if err := c.checkRange(addr, n); err != nil {
		return err
	}
	m, err := c.route()
	if err != nil {
		return err
	}
	op := c.getOp()
	op.c = c
	op.cbWrite = cb
	nseg := c.nsegs(addr, n)
	if nseg > 1 {
		c.metrics.SplitOps.Inc()
	}
	op.prep(nseg)
	op.charge(2*nseg + 1) // two replicas per segment, +1 issuer hold
	var issueErr error
	c.segments(addr, n, func(seg int, a uint64, ln, off int) {
		e, _ := m.Locate(a)
		pri, mir := m.Extent(e)
		for _, node := range [2]int{pri, mir} {
			s := c.getSub()
			s.c, s.op, s.seg = c, op, seg
			s.kind, s.node, s.attempt = kWrite, node, 0
			s.addr, s.n = a, ln
			s.wdata = data[off : off+ln]
			if err := c.issueSub(s); err != nil {
				c.putSub(s)
				op.subDone(seg, err, true)
				if issueErr == nil {
					issueErr = err
				}
			}
		}
	})
	return op.releaseHold(issueErr)
}

// RMW issues an asynchronous routed atomic: it executes on the extent's
// primary, and the computed stored value is written through to the mirror
// before the callback fires. On a primary retry-budget timeout the atomic
// fails over to the mirror. Aligned words never span extents, so an RMW is
// always a single segment.
//
//edmlint:hotpath
func (c *Client) RMW(addr uint64, op memctl.RMWOp, args []uint64, cb func(uint64, error)) error {
	if err := c.checkRange(addr, 8); err != nil {
		return err
	}
	m, err := c.route()
	if err != nil {
		return err
	}
	o := c.getOp()
	o.c = c
	o.cbRMW = cb
	o.prep(1)
	o.charge(2) // the single sub + the issuer's hold
	e, _ := m.Locate(addr)
	pri, _ := m.Extent(e)
	s := c.getSub()
	s.c, s.op, s.seg = c, o, 0
	s.kind, s.node, s.attempt = kRMW, pri, 0
	s.addr = addr
	s.rmwOp, s.rmwArgs = op, args
	var issueErr error
	if err := c.issueSub(s); err != nil {
		c.putSub(s)
		o.subDone(0, err, true)
		issueErr = err
	}
	return o.releaseHold(issueErr)
}

// ReadSync, WriteSync and RMWSync are the blocking forms, shared with the
// single-node client through rmem.Memory.
func (c *Client) ReadSync(addr uint64, n int) ([]byte, error) { return rmem.ReadSync(c, addr, n) }

// WriteSync is the blocking form of Write.
func (c *Client) WriteSync(addr uint64, data []byte) error { return rmem.WriteSync(c, addr, data) }

// RMWSync is the blocking form of RMW.
func (c *Client) RMWSync(addr uint64, op memctl.RMWOp, args ...uint64) (uint64, error) {
	return rmem.RMWSync(c, addr, op, args...)
}
