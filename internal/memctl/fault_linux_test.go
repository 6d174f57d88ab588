//go:build linux && !race

package memctl

import (
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
)

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name: the calling thread's counters only.
const rusageThread = 1

// minorFaults reports the calling thread's minor page faults so far.
func minorFaults(tb testing.TB) int64 {
	tb.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		tb.Fatalf("getrusage: %v", err)
	}
	return ru.Minflt
}

// fillSize is the slab both the test and the benchmark fill: large enough
// that the page tables and the source buffer are noise next to its pages.
const fillSize = 16 << 20

// fill writes every byte of c in 16 KiB writes (the bulk path's size) and
// reports the minor faults the calling thread took doing it.
func fill(tb testing.TB, c *Controller, src []byte) int64 {
	tb.Helper()
	before := minorFaults(tb)
	for a := uint64(0); a < c.Size(); a += uint64(len(src)) {
		if _, err := c.Write(a, src); err != nil {
			tb.Fatal(err)
		}
	}
	return minorFaults(tb) - before
}

// newFillController returns an empty controller over fillSize bytes.
func newFillController() *Controller {
	cfg := DefaultConfig()
	cfg.Size = fillSize
	return New(cfg)
}

// The first touch of a fresh slab page is the write that fills it: one
// minor fault per 4 KiB page. A load from the page before the store (an
// array-pointer nil check) first maps the shared zero page and then takes
// a copy-on-write fault, about two per page. Measured on the one locked
// thread, with the collector off so no assist runs there.
//
// Only memory the process never used is fresh: the runtime zeroes recycled
// heap before handing it out, and that store is then the first touch, so a
// second -count, or a Go heap backed by transparent huge pages, faults well
// under once per page and the test skips.
func TestFreshPageFaultsOnce(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	src := make([]byte, 16<<10)
	for i := range src {
		src[i] = byte(i) | 1
	}
	faults := fill(t, newFillController(), src)
	perPage := float64(faults) / (fillSize / pageBytes)
	t.Logf("%d minor faults for %d pages: %.2f per page", faults, fillSize/pageBytes, perPage)
	if perPage < 0.5 {
		t.Skipf("%.2f minor faults per page: the fill reused resident memory, nothing fresh to measure", perPage)
	}
	if perPage > 1.25 {
		t.Fatalf("filling a fresh slab took %.2f minor faults per 4 KiB page, want at most 1.25", perPage)
	}
}

// BenchmarkSlabFill fills a 16 MiB controller with 16 KiB writes per
// iteration and reports the cost per MiB and the minor faults per 4 KiB
// page behind it. Its first iteration in a process fills never-used memory,
// as a memory node's prefill does: run it with -benchtime 1x, one process
// per sample, to see that. Later iterations refill heap the runtime
// recycled (zeroed, after debug.FreeOSMemory handed it back to the kernel):
// one fault per page whatever the leaf type.
func BenchmarkSlabFill(b *testing.B) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	src := make([]byte, 16<<10)
	for i := range src {
		src[i] = byte(i) | 1
	}
	var faults int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		debug.FreeOSMemory()
		c := newFillController()
		b.StartTimer()
		faults += fill(b, c, src)
	}
	b.StopTimer()
	b.ReportMetric(float64(faults)/float64(b.N)/(fillSize/pageBytes), "faults/page")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(fillSize>>20), "ns/MiB")
}
