package main

// Example runs the loadlatency miniature; every latency in it is virtual time, so
// the output is the same on every run.
func Example() {
	main()
	// Output:
	// 64B random reads+writes, 32 nodes x 100Gbps, normalized mean latency
	// load           EDM         CXL    Fastpass
	// 0.2           1.02        1.00       12.61
	// 0.4           1.05        1.01       15.10
	// 0.6           1.10        1.08       15.93
	// 0.8           1.24        1.58       16.34
	// 0.9           1.37        1.82       16.48
	//
	// EDM stays near 1x its unloaded latency at every load (paper: <=1.3x);
	// Fastpass collapses because every request serializes through one arbiter NIC.
}
