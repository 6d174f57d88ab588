package edm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/memctl"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Config parameterizes a Fabric. Everything else about the testbed is fixed
// at the paper's 25 GbE FPGA setup (§4.1, Table 1): see the constants in
// latency.go.
type Config struct {
	// Ports is the number of hosts on the single switch.
	Ports int
	// MuxPolicy controls memory/frame interleaving on every TX path.
	MuxPolicy phy.MuxPolicy
}

// DefaultConfig is the 25 GbE testbed configuration.
func DefaultConfig(ports int) Config {
	return Config{Ports: ports, MuxPolicy: phy.PolicyFair}
}

// Fabric assembles hosts, links and the EDM switch into a runnable
// block-level testbed: the software equivalent of the paper's three-FPGA
// setup (Figure 4), generalized to N ports.
type Fabric struct {
	Engine *sim.Engine
	cfg    Config
	sw     *Switch
	hosts  []*Host
	up     []*Link // host -> switch
	down   []*Link // switch -> host
}

// New builds a fabric with cfg.Ports hosts, none of which has memory
// attached yet (see AttachMemory). As on the FPGA prototype, the scheduler
// runs at the PCS clock.
func New(cfg Config) *Fabric { return newFabric(cfg, BlockPeriod) }

// newFabric is New with the scheduler clocked at schedClock.
func newFabric(cfg Config, schedClock sim.Time) *Fabric {
	if cfg.Ports < 2 || cfg.Ports > MaxPorts {
		panic(fmt.Sprintf("edm: invalid port count %d", cfg.Ports))
	}
	f := &Fabric{Engine: sim.NewEngine(), cfg: cfg}
	f.sw = newSwitch(f.Engine, cfg, schedClock)
	f.hosts = make([]*Host, cfg.Ports)
	f.up = make([]*Link, cfg.Ports)
	f.down = make([]*Link, cfg.Ports)
	for i := 0; i < cfg.Ports; i++ {
		i := i
		up := newLink(f.Engine)
		down := newLink(f.Engine)
		h := newHost(f.Engine, cfg.MuxPolicy, i, up)
		up.Deliver = func(b phy.Block) { f.sw.receive(i, b) }
		down.Deliver = h.receive
		f.sw.ports[i].egress = down
		h.onWriteApplied = func(srcPort int, id uint8) {
			f.hosts[srcPort].fireWriteApplied(i, id)
		}
		f.hosts[i] = h
		f.up[i] = up
		f.down[i] = down
	}
	return f
}

// Host returns the host at port i.
func (f *Fabric) Host(i int) *Host { return f.hosts[i] }

// Switch returns the EDM switch.
func (f *Fabric) Switch() *Switch { return f.sw }

// AttachMemory turns port i into a memory node backed by ctl.
func (f *Fabric) AttachMemory(i int, ctl *memctl.Controller) {
	f.hosts[i].mem = ctl
}

// DisableLink administratively disables both directions of port i's link
// (§3.3 fault handling).
func (f *Fabric) DisableLink(i int) {
	f.up[i].Disable()
	f.down[i].Disable()
}

// EnableLink re-enables port i's link.
func (f *Fabric) EnableLink(i int) {
	f.up[i].Enable()
	f.down[i].Enable()
}

// UpLink returns the host->switch link for fault injection in tests.
func (f *Fabric) UpLink(i int) *Link { return f.up[i] }

// DownLink returns the switch->host link.
func (f *Fabric) DownLink(i int) *Link { return f.down[i] }

// LinkStats aggregates the fault counters of every link in the fabric
// (both directions of every port).
func (f *Fabric) LinkStats() LinkStats {
	var s LinkStats
	for i := 0; i < f.cfg.Ports; i++ {
		s.Add(f.up[i].Stats())
		s.Add(f.down[i].Stats())
	}
	return s
}

// Run drains all pending events.
func (f *Fabric) Run() { f.Engine.Run() }

// RunUntil advances simulated time to the deadline.
func (f *Fabric) RunUntil(t sim.Time) { f.Engine.RunUntil(t) }

// ReadSync issues a read and runs the engine until it completes, returning
// the data and the elapsed fabric latency. Intended for tests, examples and
// unloaded-latency experiments.
func (f *Fabric) ReadSync(from, memNode int, addr uint64, n int) ([]byte, sim.Time, error) {
	start := f.Engine.Now()
	var data []byte
	var err error
	done := false
	f.hosts[from].Read(memNode, addr, n, func(d []byte, e error) {
		data, err, done = d, e, true
	})
	for !done && f.Engine.Step() {
	}
	if !done {
		return nil, 0, fmt.Errorf("edm: read never completed")
	}
	return data, f.Engine.Now() - start, err
}

// WriteSync issues a write and runs until it is applied remotely.
func (f *Fabric) WriteSync(from, memNode int, addr uint64, data []byte) (sim.Time, error) {
	start := f.Engine.Now()
	var err error
	done := false
	f.hosts[from].Write(memNode, addr, data, func(e error) {
		err, done = e, true
	})
	for !done && f.Engine.Step() {
	}
	if !done {
		return 0, fmt.Errorf("edm: write never completed")
	}
	return f.Engine.Now() - start, err
}

// RMWSync issues an atomic and runs until its response arrives.
func (f *Fabric) RMWSync(from, memNode int, addr uint64, op memctl.RMWOp, args ...uint64) (uint64, sim.Time, error) {
	start := f.Engine.Now()
	var result uint64
	var err error
	done := false
	f.hosts[from].RMW(memNode, addr, op, args, func(d []byte, e error) {
		if e == nil && len(d) == 8 {
			result = binary.LittleEndian.Uint64(d)
		}
		err, done = e, true
	})
	for !done && f.Engine.Step() {
	}
	if !done {
		return 0, 0, fmt.Errorf("edm: RMW never completed")
	}
	return result, f.Engine.Now() - start, err
}
