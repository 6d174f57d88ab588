// kvcache: a disaggregated key-value store under YCSB-A, demonstrating the
// Figure 7 experiment in miniature. Hot keys live in node-local DRAM, cold
// keys in remote memory reached over the EDM fabric; the example sweeps the
// local:remote placement and reports average access latency per tier.
package main

import (
	"fmt"
	"log"

	"repro/internal/edm"
	"repro/internal/kvstore"
	"repro/internal/memctl"
	"repro/internal/workload"
)

func main() {
	fmt.Println("local:remote  avg(ns)   local-avg(ns)  remote-avg(ns)  remote-ops")
	for _, localPct := range []int{90, 66, 50, 34, 10} {
		// Fresh fabric per configuration: compute node 0, memory node 1.
		fabric := edm.New(edm.DefaultConfig(2))
		fabric.AttachMemory(1, memctl.New(memctl.DefaultConfig()))
		localDRAM := memctl.New(memctl.DefaultConfig())

		const slots = 4096
		store, err := kvstore.New(fabric, 0, 1, localDRAM, kvstore.Config{
			Slots:      slots,
			SlotBytes:  64,
			LocalSlots: slots * localPct / 100,
		})
		if err != nil {
			log.Fatal(err)
		}

		lats, err := store.RunYCSB(workload.YCSBA, 600, 7)
		if err != nil {
			log.Fatal(err)
		}

		var sum, lsum, rsum float64
		var ln, rn int
		for _, l := range lats {
			ns := l.Latency.Nanoseconds()
			sum += ns
			if l.Local {
				lsum += ns
				ln++
			} else {
				rsum += ns
				rn++
			}
		}
		lavg, ravg := 0.0, 0.0
		if ln > 0 {
			lavg = lsum / float64(ln)
		}
		if rn > 0 {
			ravg = rsum / float64(rn)
		}
		fmt.Printf("%6d:%-6d %8.0f %12.0f %15.0f %11d\n",
			localPct, 100-localPct, sum/float64(len(lats)), lavg, ravg, rn)
	}
	fmt.Println("\nRemote accesses pay the ~300ns EDM fabric on top of DRAM;")
	fmt.Println("compare Figure 7 of the paper (README's Experiment map; edmbench -experiment fig7).")
}
