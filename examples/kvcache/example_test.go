package main

// Example runs the kvcache miniature; every latency in it is virtual time, so
// the output is the same on every run.
func Example() {
	main()
	// Output:
	// local:remote  avg(ns)   local-avg(ns)  remote-avg(ns)  remote-ops
	//     90:10           77           72             387          10
	//     66:34           88           70             387          33
	//     50:50           97           69             386          53
	//     34:66          110           69             392          76
	//     10:90          150           69             393         150
	//
	// Remote accesses pay the ~300ns EDM fabric on top of DRAM;
	// compare Figure 7 of the paper (README's Experiment map; edmbench -experiment fig7).
}
