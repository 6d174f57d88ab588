package main

// Example runs the quickstart miniature; every latency in it is virtual time, so
// the output is the same on every run.
func Example() {
	main()
	// Output:
	// write 27 B to node 2:   373.81ns
	// read  27 B from node 2: 360.49ns -> "hello, disaggregated memory"
	// read  64 B (cache line): 380.97ns
	// node 0 CAS(0->1):        385.34ns (acquired=1)
	// node 1 CAS(0->1):        acquired=0 (lock already held)
	// 4 concurrent cross reads completed: 4/4
	// switch: 8 requests intercepted, 9 grants, 9 chunks forwarded
}
