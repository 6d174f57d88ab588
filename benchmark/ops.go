//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/memctl"
	"repro/internal/workload"
)

// memory is the async API the driver issues ops through. rmem.Client and
// cluster.Client both have it; the null, codec and wire rungs implement it
// over less of the stack.
type memory interface {
	Read(addr uint64, n int, cb func([]byte, error)) error
	Write(addr uint64, data []byte, cb func(error)) error
	RMW(addr uint64, op memctl.RMWOp, args []uint64, cb func(uint64, error)) error
}

// Op kinds as the driver records them. A split op keeps its own latency
// class whatever it does, so the cost of straddling an extent shows.
const (
	opRead = iota
	opWrite
	opRMW
	opSplit
	numOpKinds
)

// layout carves the slab: [0, readHi) is prefilled with the read pattern
// and never written, [writeLo, writeHi) starts zeroed and only ever
// receives the write pattern, and counterWords fetch-add words sit at
// ctrLo. Every border is an extent boundary.
type layout struct {
	slab             uint64
	readHi           uint64
	writeLo, writeHi uint64
	ctrLo            uint64
}

func newLayout(slab uint64) (layout, error) {
	if slab < 16*extentBytes || slab%(4*extentBytes) != 0 {
		return layout{}, fmt.Errorf("slab %d: need a multiple of %d, at least %d", slab, 4*extentBytes, 16*extentBytes)
	}
	l := layout{slab: slab, readHi: slab / 4 * 3}
	l.writeLo = l.readHi
	l.writeHi = slab - extentBytes
	l.ctrLo = l.writeHi
	return l, nil
}

// The data patterns. The 8-byte word at address a holds (a/8+1)*k, so any
// byte range can be produced or checked incrementally, and data returned
// from the wrong address never matches.
const (
	readK  = 0x9e3779b97f4a7c15
	writeK = 0xc2b2ae3d27d4eb4f
)

// fillPattern writes the pattern for [addr, addr+len(p)) into p. addr and
// len(p) are multiples of 8.
func fillPattern(p []byte, addr, k uint64) {
	w := (addr/8 + 1) * k
	for o := 0; o+8 <= len(p); o += 8 {
		binary.LittleEndian.PutUint64(p[o:], w)
		w += k
	}
}

// checkPattern reports whether p holds the pattern for [addr, addr+len(p)).
func checkPattern(p []byte, addr, k uint64) bool {
	w := (addr/8 + 1) * k
	for o := 0; o+8 <= len(p); o += 8 {
		if binary.LittleEndian.Uint64(p[o:]) != w {
			return false
		}
		w += k
	}
	return len(p)%8 == 0
}

func isZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// verifier holds what the slab must contain given the ops issued so far.
type verifier struct {
	lay     layout
	readK   uint64          // the expected read pattern constant (a wrong one is the injected-corruption check)
	written []uint8         // per blockBytes block of the write region: a write covered it
	expect  []atomic.Uint64 // per counter word: sum of acked fetch-add deltas
	// firstBad describes the first thing a sweep found wrong.
	firstBad string
}

func (v *verifier) bad(format string, args ...any) {
	if v.firstBad == "" {
		v.firstBad = fmt.Sprintf(format, args...)
	}
}

func newVerifier(lay layout, wrongExpect bool) *verifier {
	v := &verifier{lay: lay, readK: readK,
		written: make([]uint8, (lay.writeHi-lay.writeLo)/blockBytes),
		expect:  make([]atomic.Uint64, counterWords)}
	if wrongExpect {
		v.readK = readK + 2
	}
	return v
}

func (v *verifier) markWritten(addr uint64, n int) {
	lo := (addr - v.lay.writeLo) / blockBytes
	hi := (addr + uint64(n) - v.lay.writeLo + blockBytes - 1) / blockBytes
	for i := lo; i < hi; i++ {
		v.written[i] = 1
	}
}

// checkWriteRegion compares data read back from [addr, addr+len(p)) of the
// write region with the written map, block by block, and returns the number
// of blocks that are wrong: written blocks must hold the write pattern,
// untouched ones must still be zero.
func (v *verifier) checkWriteRegion(p []byte, addr uint64) (bad uint64) {
	for o := 0; o+blockBytes <= len(p); o += blockBytes {
		a := addr + uint64(o)
		blk := p[o : o+blockBytes]
		ok := false
		if v.written[(a-v.lay.writeLo)/blockBytes] != 0 {
			ok = checkPattern(blk, a, writeK)
		} else {
			ok = isZero(blk)
		}
		if !ok {
			bad++
			v.bad("block at %#x (written=%d) holds % x...", a, v.written[(a-v.lay.writeLo)/blockBytes], blk[:16])
		}
	}
	return bad
}

// checkCounters compares the counter page with the acked fetch-add sums.
func (v *verifier) checkCounters(p []byte) (bad uint64) {
	for i := 0; i < counterWords; i++ {
		if got, want := binary.LittleEndian.Uint64(p[8*i:]), v.expect[i].Load(); got != want {
			bad++
			v.bad("counter %d holds %d, acked fetch-adds sum to %d", i, got, want)
		}
	}
	return bad
}

// opGen draws the op stream. The stack under test only ever sees the ops;
// the seed and the stream stay on the benchmark's side.
type opGen struct {
	sp          spec
	lay         layout
	rng         *workload.Rand
	seq         uint64
	readBlocks  uint64 // start positions for an unsplit read
	writeBlocks uint64
	readExts    uint64 // interior extent boundaries of the read region
	writeExts   uint64
}

func newOpGen(sp spec, lay layout, seed uint64, stream string) *opGen {
	n := uint64(sp.Size)
	return &opGen{sp: sp, lay: lay,
		rng:         workload.NewPartition(seed).Stream(stream),
		readBlocks:  (lay.readHi-n)/blockBytes + 1,
		writeBlocks: (lay.writeHi-lay.writeLo-n)/blockBytes + 1,
		readExts:    lay.readHi/extentBytes - 1,
		writeExts:   (lay.writeHi-lay.writeLo)/extentBytes - 1,
	}
}

// next fills s with the next op of the stream.
func (g *opGen) next(s *slot) {
	sp := &g.sp
	r := g.rng.Uint64()
	kind := opRead
	switch {
	case sp.Alternate:
		if g.seq&1 == 1 {
			kind = opWrite
		}
	default:
		pct := int(r % 100)
		switch {
		case pct < sp.ReadPct:
		case pct < sp.ReadPct+sp.WritePct:
			kind = opWrite
		default:
			kind = opRMW
		}
	}
	g.seq++
	s.kind, s.class, s.n = uint8(kind), uint8(kind), sp.Size
	if kind == opRMW {
		s.word = int((r >> 8) % counterWords)
		s.addr = g.lay.ctrLo + 8*uint64(s.word)
		s.args[0] = 1 + (r>>32)&7
		s.n = 8
		return
	}
	split := sp.SplitPct > 0 && int((r>>8)%100) < sp.SplitPct
	a := g.rng.Uint64()
	base, blocks, exts := uint64(0), g.readBlocks, g.readExts
	if kind == opWrite {
		base, blocks, exts = g.lay.writeLo, g.writeBlocks, g.writeExts
	}
	if !split {
		s.addr = base + (a%blocks)*blockBytes
		// An unsplit op placed across a boundary by chance is still a split
		// op to the cluster; class it so.
		if s.addr/extentBytes != (s.addr+uint64(s.n)-1)/extentBytes {
			s.class = opSplit
		}
		return
	}
	// Straddle an interior extent boundary of the op's region. Writes keep
	// block granularity so the written map stays exact.
	back := uint64(sp.Size / 2)
	if sp.Size >= 2*blockBytes {
		back = blockBytes * (1 + (a>>32)%uint64(sp.Size/blockBytes-1))
	}
	s.addr = base + (1+a%exts)*extentBytes - back
	s.class = opSplit
}
