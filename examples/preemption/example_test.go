package main

// Example runs the preemption miniature; every latency in it is virtual time, so
// the output is the same on every run.
func Example() {
	main()
	// Output:
	// EDM intra-frame preemption (fair 66-bit mux):
	//   read 0 under frame traffic: 309.76ns
	//   read 1 under frame traffic: 309.76ns
	//   read 2 under frame traffic: 309.76ns
	//   read 3 under frame traffic: 309.76ns
	//   read 4 under frame traffic: 309.76ns
	//   host TX: 15 memory blocks, 1890 frame blocks interleaved
	//
	// MAC-like behaviour (no preemption):
	//   read 0 under frame traffic: 1.275us
	//   read 1 under frame traffic: 1.275us
	//   read 2 under frame traffic: 1.275us
	//   read 3 under frame traffic: 1.275us
	//   read 4 under frame traffic: 1.275us
	//   host TX: 15 memory blocks, 1890 frame blocks interleaved
	//
	// A 1500B frame takes 480ns to serialize at 25GbE: without preemption
	// every read eats that wait; EDM's PHY mux removes it entirely.
}
