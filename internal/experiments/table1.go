// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Table 1 and Figure 5 from the block-level testbed fabric
// and the component-latency models, Figures 6-7 from the key-value store
// application, and Figure 8 from the large-scale network simulator. Each
// experiment returns plain row structs, and cmd/edmbench, the one command
// that regenerates the artifacts, formats them.
package experiments

import (
	"fmt"

	"repro/internal/edm"
	"repro/internal/ethstack"
	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Table1Row is one stack/operation cell column of Table 1.
type Table1Row struct {
	Stack      transport.Stack
	Write      bool
	StackTotal sim.Time // network stack latency
	Total      sim.Time // total fabric latency
	// Measured is the latency observed on a running fabric simulation:
	// the block-level EDM testbed for the EDM rows, and the frame-level
	// MAC/L2 stack (internal/ethstack) for the raw-Ethernet rows. TCP and
	// RoCE rows are component models only, as their stack latencies are
	// opaque constants from the paper's RTL.
	Measured sim.Time
	// PaperTotal is the value printed in the paper for comparison.
	PaperTotal sim.Time
}

// paper-reported totals (Table 1). The paper prints 3.79 us for the TCP
// read; the exact sum of its own components is 3779.68 ns, which we use.
var paperTotals = map[transport.Stack][2]sim.Time{ // [read, write]
	transport.StackTCP:         {3779680 * sim.Picosecond, 1889840 * sim.Picosecond},
	transport.StackRoCE:        {2035680 * sim.Picosecond, 1017840 * sim.Picosecond},
	transport.StackRawEthernet: {1114880 * sim.Picosecond, 557440 * sim.Picosecond},
	transport.StackEDM:         {299520 * sim.Picosecond, 296960 * sim.Picosecond},
}

// zeroLatencyMemory returns a memory controller with no access latency, so
// the testbed measures pure fabric latency as Table 1 does.
func zeroLatencyMemory() *memctl.Controller {
	cfg := memctl.DefaultConfig()
	cfg.Untimed = true
	return memctl.New(cfg)
}

// newTestbed builds the paper's testbed: compute node on port 0, memory
// node on port 1, 25 GbE (Figure 4), with zero-latency DRAM.
func newTestbed() *edm.Fabric {
	f := edm.New(edm.DefaultConfig(2))
	f.AttachMemory(1, zeroLatencyMemory())
	return f
}

// MeasureEDMUnloaded runs one 64 B read and one 64 B write through the
// block-level fabric and returns their latencies.
func MeasureEDMUnloaded() (read, write sim.Time, err error) {
	f := newTestbed()
	if _, err := f.Host(1).Memory().Write(0, make([]byte, 64)); err != nil {
		return 0, 0, err
	}
	_, read, err = f.ReadSync(0, 1, 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("table1: read: %w", err)
	}
	write, err = f.WriteSync(0, 1, 4096, make([]byte, 64))
	if err != nil {
		return 0, 0, fmt.Errorf("table1: write: %w", err)
	}
	return read, write, nil
}

// MeasureRawEthernetUnloaded runs one 64 B read and write through the
// frame-level MAC/L2 fabric.
func MeasureRawEthernetUnloaded() (read, write sim.Time, err error) {
	n := ethstack.New(2)
	n.Host(1).AttachMemory(zeroLatencyMemory())
	if _, err := n.Host(1).Memory().Write(0, make([]byte, 64)); err != nil {
		return 0, 0, err
	}
	_, read, err = n.ReadSync(0, 1, 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("table1 raw: read: %w", err)
	}
	write, err = n.WriteSync(0, 1, 4096, make([]byte, 64))
	if err != nil {
		return 0, 0, fmt.Errorf("table1 raw: write: %w", err)
	}
	return read, write, nil
}

// Table1 regenerates the table: eight rows (four stacks x read/write).
func Table1() ([]Table1Row, error) {
	edmRead, edmWrite, err := MeasureEDMUnloaded()
	if err != nil {
		return nil, err
	}
	rawRead, rawWrite, err := MeasureRawEthernetUnloaded()
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, s := range []transport.Stack{
		transport.StackTCP, transport.StackRoCE, transport.StackRawEthernet, transport.StackEDM,
	} {
		for _, write := range []bool{false, true} {
			b := transport.Table1(s, write)
			row := Table1Row{
				Stack:      s,
				Write:      write,
				StackTotal: b.StackTotal(),
				Total:      b.Total(),
			}
			idx := 0
			if write {
				idx = 1
			}
			row.PaperTotal = paperTotals[s][idx]
			switch s {
			case transport.StackEDM:
				if write {
					row.Measured = edmWrite
				} else {
					row.Measured = edmRead
				}
			case transport.StackRawEthernet:
				if write {
					row.Measured = rawWrite
				} else {
					row.Measured = rawRead
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Ratio reports how much slower the row is than EDM's model total for the
// same operation — the §4.2.1 headline ratios (3.7x/6.8x/12.7x reads,
// 1.9x/3.4x/6.4x writes).
func (r Table1Row) Ratio() float64 {
	base := transport.Table1(transport.StackEDM, r.Write).Total()
	return float64(r.Total) / float64(base)
}
