package main

// Example runs the locks miniature; every latency in it is virtual time, so
// the output is the same on every run.
func Example() {
	main()
	// Output:
	// node 0 finished its 5 increments at t=20.552us
	// node 1 finished its 5 increments at t=21.681us
	// node 2 finished its 5 increments at t=22.810us
	// node 3 finished its 5 increments at t=23.939us
	//
	// shared counter = 20 (want 20), workers finished = 4/4
	// mutual exclusion held: every increment serialized by the remote CAS lock
}
