package edm

import (
	"repro/internal/phy"
	"repro/internal/sim"
)

// Link is one direction of an Ethernet link at block granularity. The
// sender's block pump paces transmissions at one block per PCS cycle, so the
// link itself only models latency: PMA/PMD+transceiver at each end plus
// propagation (LinkLatency). It also provides the fault hooks of §3.3: administrative
// disable and periodic corruption injection.
type Link struct {
	engine *sim.Engine
	// Deliver receives each block at the far end.
	Deliver func(phy.Block)

	disabled     bool
	corruptEvery uint64 // corrupt every Nth block; 0 = never
	dropEvery    uint64 // drop every Nth block; 0 = never
	sent         uint64
	dropped      uint64
	corrupted    uint64
}

// LinkStats counts per-link fault events for the scenario reports.
type LinkStats struct {
	Sent      uint64 // blocks delivered (including corrupted ones)
	Dropped   uint64 // blocks lost to administrative disable or DropOneIn
	Corrupted uint64 // blocks delivered with an injected bit error
}

// Add accumulates another link's counters (for fabric-wide aggregation).
func (s *LinkStats) Add(o LinkStats) {
	s.Sent += o.Sent
	s.Dropped += o.Dropped
	s.Corrupted += o.Corrupted
}

func newLink(engine *sim.Engine) *Link { return &Link{engine: engine} }

// Disable makes the link silently drop all traffic — the paper's response
// to persistent data corruption (§3.3).
func (l *Link) Disable() { l.disabled = true }

// Enable re-enables a disabled link.
func (l *Link) Enable() { l.disabled = false }

// CorruptOneIn makes every nth block arrive with a flipped payload byte
// (n=0 disables injection). The receiver's demux detects the corruption
// when the block breaks its protocol checks.
func (l *Link) CorruptOneIn(n uint64) { l.corruptEvery = n }

// DropOneIn makes every nth block vanish on the line (n=0 disables) — the
// lossy-link chaos mode, distinct from Disable's total outage.
func (l *Link) DropOneIn(n uint64) { l.dropEvery = n }

// Stats reports the link's fault counters.
func (l *Link) Stats() LinkStats {
	return LinkStats{Sent: l.sent, Dropped: l.dropped, Corrupted: l.corrupted}
}

// Send schedules delivery of one block. The caller is responsible for
// pacing (one block per BlockPeriod).
func (l *Link) Send(b phy.Block) {
	if l.disabled {
		l.dropped++
		return
	}
	if l.dropEvery > 0 && (l.sent+l.dropped+1)%l.dropEvery == 0 {
		l.dropped++
		return
	}
	l.sent++
	if l.corruptEvery > 0 && l.sent%l.corruptEvery == 0 {
		l.corrupted++
		b.Payload[1] ^= 0x40 // single bit error on the line
	}
	l.engine.After(LinkLatency, func() {
		if l.Deliver != nil {
			l.Deliver(b)
		}
	})
}
