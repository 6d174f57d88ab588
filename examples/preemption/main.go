// preemption: demonstrates EDM's intra-frame preemption (§3.2.3). A compute
// node streams 1500 B Ethernet frames while issuing 64 B remote reads; with
// the fair PHY mux, memory blocks interleave into the frame at 66-bit
// granularity and reads stay at ~310 ns; with a MAC-like frame-first mux
// the read request waits for the whole frame (limitation 3).
package main

import (
	"fmt"
	"log"

	"repro/internal/edm"
	"repro/internal/memctl"
	"repro/internal/phy"
)

func run(policy phy.MuxPolicy, label string) {
	cfg := edm.DefaultConfig(2)
	cfg.MuxPolicy = policy
	fabric := edm.New(cfg)
	mem := memctl.DefaultConfig()
	mem.Untimed = true // fabric-only
	fabric.AttachMemory(1, memctl.New(mem))
	if _, err := fabric.Host(1).Memory().Write(0, make([]byte, 64)); err != nil {
		log.Fatal(err)
	}

	frame := make([]byte, 1500)
	fmt.Printf("%s:\n", label)
	for i := 0; i < 5; i++ {
		// Saturate the TX path with IP frames, then issue a read.
		fabric.Host(0).SendFrame(frame)
		fabric.Host(0).SendFrame(frame)
		_, lat, err := fabric.ReadSync(0, 1, 0, 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  read %d under frame traffic: %v\n", i, lat)
	}
	fabric.Run()
	st := fabric.Host(0).Stats()
	fmt.Printf("  host TX: %d memory blocks, %d frame blocks interleaved\n\n",
		st.MemBlocksTX, st.FrameBlocksTX)
}

func main() {
	run(phy.PolicyFair, "EDM intra-frame preemption (fair 66-bit mux)")
	run(phy.PolicyFrameFirst, "MAC-like behaviour (no preemption)")
	fmt.Println("A 1500B frame takes 480ns to serialize at 25GbE: without preemption")
	fmt.Println("every read eats that wait; EDM's PHY mux removes it entirely.")
}
