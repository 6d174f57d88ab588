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
	return int64(ru.Minflt) // int32 on 32-bit platforms
}

// fillSize is the slab both the test and the benchmark fill: large enough
// that the source buffer is noise next to its pages.
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
// minor fault per 4 KiB page. A load from the page before the store would
// first map the shared zero page and then take a copy-on-write fault, about
// two per page. Every controller is a fresh mapping, so this holds on every
// run of the test. Measured on the one locked thread, with the collector
// off so no assist runs there.
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
	if perPage > 1.1 {
		t.Fatalf("filling a fresh slab took %.2f minor faults per 4 KiB page, want at most 1.1", perPage)
	}
}

// BenchmarkSlabFill fills a fresh 16 MiB controller with 16 KiB writes per
// iteration and reports the cost per MiB and the minor faults per 4 KiB
// page behind it, as a memory node's prefill takes them. Between
// iterations, off the clock, a collection lets the previous controller's
// mapping be unmapped, so the benchmark holds about one slab resident.
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
		runtime.GC()
		c := newFillController()
		b.StartTimer()
		faults += fill(b, c, src)
	}
	b.StopTimer()
	b.ReportMetric(float64(faults)/float64(b.N)/(fillSize/pageBytes), "faults/page")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(fillSize>>20), "ns/MiB")
}
