package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds collided immediately")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.47 || mean > 0.53 {
		t.Fatalf("Float64 mean = %f", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(3)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	if mean := sum / n; mean < 97 || mean > 103 {
		t.Fatalf("Exp mean = %f, want ~100", mean)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(NewRand(1), 1000, 0.99)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Rank 0 must be much hotter than rank 100.
	if counts[0] < 10*counts[100] {
		t.Fatalf("zipf not skewed: c0=%d c100=%d", counts[0], counts[100])
	}
	// Head (top 10%) should hold the majority of accesses.
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if float64(head)/n < 0.5 {
		t.Fatalf("zipf head fraction = %f", float64(head)/n)
	}
}

func TestCDFValidation(t *testing.T) {
	if _, err := NewCDF("x", nil); err == nil {
		t.Error("empty CDF accepted")
	}
	if _, err := NewCDF("x", []CDFPoint{{100, 0.5}}); err == nil {
		t.Error("CDF not ending at 1 accepted")
	}
	if _, err := NewCDF("x", []CDFPoint{{100, 0.5}, {100, 1.0}}); err == nil {
		t.Error("duplicate size accepted")
	}
	if _, err := NewCDF("x", []CDFPoint{{100, 0.9}, {200, 0.5}}); err == nil {
		t.Error("decreasing fraction accepted")
	}
	if _, err := NewCDF("x", []CDFPoint{{0, 1.0}}); err == nil {
		t.Error("zero size accepted")
	}
}

func TestCDFSampleWithinSupport(t *testing.T) {
	for _, c := range AppProfiles() {
		r := NewRand(5)
		maxSize := c.points[len(c.points)-1].Size
		for i := 0; i < 10000; i++ {
			s := c.Sample(r)
			if s < 1 || s > maxSize {
				t.Fatalf("%s: sample %d outside (0, %d]", c.Name(), s, maxSize)
			}
		}
	}
}

func TestCDFEmpiricalMeanMatchesAnalytic(t *testing.T) {
	for _, c := range AppProfiles() {
		r := NewRand(11)
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			sum += float64(c.Sample(r))
		}
		emp := sum / n
		ana := c.Mean()
		if math.Abs(emp-ana)/ana > 0.05 {
			t.Errorf("%s: empirical mean %.0f vs analytic %.0f", c.Name(), emp, ana)
		}
	}
}

func TestAppProfilesAreHeavyTailed(t *testing.T) {
	// The Figure 8b traces are heavy-tailed: p99 must dwarf the median,
	// and Memcached must have the lightest tail of the set.
	var maxP99 int
	mcP99 := Memcached().Percentile(0.99)
	for _, c := range AppProfiles() {
		p50 := c.Percentile(0.50)
		p99 := c.Percentile(0.99)
		if p99 < 20*p50 {
			t.Errorf("%s: p99/p50 = %d/%d not heavy-tailed", c.Name(), p99, p50)
		}
		if p99 > maxP99 {
			maxP99 = p99
		}
	}
	if mcP99 >= maxP99 {
		t.Errorf("memcached p99 %d is not the lightest tail", mcP99)
	}
}

func TestGenerateLoadAccuracy(t *testing.T) {
	cfg := GenConfig{
		Nodes: 16, Load: 0.6, Bandwidth: 100,
		Sizes: Fixed(64), ReadFrac: 0.5, Count: 32000, Seed: 9,
	}
	ops, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != cfg.Count {
		t.Fatalf("generated %d ops", len(ops))
	}
	// Offered load per node: bytes sent / (horizon * bandwidth).
	perNode := make(map[int]int64)
	var horizon sim.Time
	for _, op := range ops {
		perNode[op.Src] += int64(op.Size)
		if op.Arrival > horizon {
			horizon = op.Arrival
		}
	}
	bitsPerPs := float64(cfg.Bandwidth) / 1000
	for n, bytes := range perNode {
		load := float64(bytes*8) / (float64(horizon) * bitsPerPs)
		if load < 0.45 || load > 0.75 {
			t.Errorf("node %d offered load %.3f, want ~0.6", n, load)
		}
	}
}

func TestGenerateSortedAndValid(t *testing.T) {
	ops, err := Generate(GenConfig{
		Nodes: 8, Load: 0.9, Bandwidth: 100,
		Sizes: Hadoop(), ReadFrac: 0.5, Count: 5000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for i, op := range ops {
		if op.Src == op.Dst {
			t.Fatal("self-directed op")
		}
		if op.Src < 0 || op.Src >= 8 || op.Dst < 0 || op.Dst >= 8 {
			t.Fatal("node out of range")
		}
		if i > 0 && op.Arrival < ops[i-1].Arrival {
			t.Fatal("ops not sorted")
		}
		if op.Index != i {
			t.Fatal("index not assigned")
		}
		if op.Read {
			reads++
		}
	}
	if f := float64(reads) / float64(len(ops)); f < 0.45 || f > 0.55 {
		t.Fatalf("read fraction %f", f)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{Nodes: 1, Load: 0.5, Bandwidth: 100, Sizes: Fixed(64), Count: 10},
		{Nodes: 4, Load: 0, Bandwidth: 100, Sizes: Fixed(64), Count: 10},
		{Nodes: 4, Load: 1.5, Bandwidth: 100, Sizes: Fixed(64), Count: 10},
		{Nodes: 4, Load: 0.5, Bandwidth: 0, Sizes: Fixed(64), Count: 10},
		{Nodes: 4, Load: 0.5, Bandwidth: 100, Sizes: nil, Count: 10},
		{Nodes: 4, Load: 0.5, Bandwidth: 100, Sizes: Fixed(64), Count: 0},
		{Nodes: 4, Load: 0.5, Bandwidth: 100, Sizes: Fixed(64), Count: 3},
		{Nodes: 4, Load: 0.5, Bandwidth: 100, Sizes: Fixed(64), ReadFrac: 2, Count: 10},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestGenerateRoundsCountDown: every node issues Count/Nodes ops, so a
// count that is not a multiple of the node count is rounded down.
func TestGenerateRoundsCountDown(t *testing.T) {
	ops, err := Generate(GenConfig{Nodes: 144, Load: 0.5, Bandwidth: 100, Sizes: Fixed(64), Count: 600, Seed: 1})
	if err != nil || len(ops) != 576 {
		t.Fatalf("600 ops at 144 nodes: %d ops, %v; want 576", len(ops), err)
	}
}

func TestYCSBFractions(t *testing.T) {
	for _, w := range []YCSBWorkload{YCSBA, YCSBB, YCSBF} {
		g := NewYCSB(w, 10000, 3)
		updates := 0
		const n = 20000
		for i := 0; i < n; i++ {
			op := g.Next()
			if op.Key < 0 || op.Key >= 10000 {
				t.Fatalf("%v: key %d", w, op.Key)
			}
			if op.Update {
				updates++
			}
		}
		got := float64(updates) / n
		want := w.WriteFraction()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v: update fraction %.3f, want %.2f", w, got, want)
		}
	}
}

// Property: CDF sampling is monotone in the uniform draw (inverse
// transform) — verified indirectly: percentiles are monotone.
func TestPercentileMonotoneProperty(t *testing.T) {
	c := Hadoop()
	f := func(a, b uint8) bool {
		qa := float64(a) / 256
		qb := float64(b) / 256
		pa, pb := c.Percentile(qa), c.Percentile(qb)
		if qa <= qb {
			return pa <= pb
		}
		return pb <= pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewRand(123)
	a := root.Split()
	b := root.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}
