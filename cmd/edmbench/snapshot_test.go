package main

import "testing"

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/wire
cpu: Some CPU @ 2.00GHz
BenchmarkEncode/64B-8         	 3000000	       312.5 ns/op	 204.80 MB/s	      96 B/op	       2 allocs/op
BenchmarkDecode/64B-8         	 2000000	       501.0 ns/op	     160 B/op	       3 allocs/op
PASS
ok  	repro/internal/wire	3.2s
pkg: repro/internal/rmem
BenchmarkClientRoundTrip-8    	  500000	      2100 ns/op	     512 B/op	       9 allocs/op
PASS
ok  	repro/internal/rmem	1.9s
`

func TestParseBench(t *testing.T) {
	got := parseBench(sampleBenchOutput)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(got), got)
	}
	// Sorted by (pkg, name): rmem first.
	b := got[0]
	if b.Pkg != "repro/internal/rmem" || b.Name != "BenchmarkClientRoundTrip" {
		t.Fatalf("first = %s %s", b.Pkg, b.Name)
	}
	if b.Iters != 500000 {
		t.Errorf("iters = %d", b.Iters)
	}
	if b.Metrics["ns/op"] != 2100 || b.Metrics["allocs/op"] != 9 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	// Within a package, names sort: Decode before Encode.
	if got[1].Name != "BenchmarkDecode/64B" {
		t.Errorf("GOMAXPROCS suffix not stripped: %s", got[1].Name)
	}
	enc := got[2]
	if enc.Name != "BenchmarkEncode/64B" {
		t.Errorf("GOMAXPROCS suffix not stripped: %s", enc.Name)
	}
	if enc.Metrics["MB/s"] != 204.8 || enc.Metrics["ns/op"] != 312.5 {
		t.Errorf("encode metrics = %v", enc.Metrics)
	}
}

const repeatedBenchOutput = `pkg: repro/internal/rmem
BenchmarkPipelinedRead-8    	  500000	      2100 ns/op	  400000 ops/s	       2 allocs/op
BenchmarkPipelinedRead-8    	  600000	      1900 ns/op	  420000 ops/s	       1 allocs/op
BenchmarkPipelinedRead-8    	  550000	      2000 ns/op	  410000 ops/s	       2 allocs/op
PASS
`

func TestParseBenchMergesCountRuns(t *testing.T) {
	got := parseBench(repeatedBenchOutput)
	if len(got) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1 merged: %+v", len(got), got)
	}
	b := got[0]
	// Best-of-N: /op metrics keep the min, /s metrics the max.
	if b.Metrics["ns/op"] != 1900 || b.Metrics["allocs/op"] != 1 || b.Metrics["ops/s"] != 420000 {
		t.Errorf("merged metrics = %v", b.Metrics)
	}
	if b.Iters != 600000 {
		t.Errorf("iters = %d, want max 600000", b.Iters)
	}
}

func TestParseBenchIgnoresNoise(t *testing.T) {
	if got := parseBench("goos: linux\nPASS\nok x 1s\n"); len(got) != 0 {
		t.Fatalf("parsed %d benchmarks from noise", len(got))
	}
	// A benchmark line with a non-numeric iteration count is skipped.
	if got := parseBench("BenchmarkBad-8 abc 1 ns/op\n"); len(got) != 0 {
		t.Fatalf("accepted malformed line: %+v", got)
	}
}
