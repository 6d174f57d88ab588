package memctl

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"
)

// span is an address range [lo, hi) of the process.
type span struct{ lo, hi uint64 }

// mapping reports the address range of c's memory.
func (c *Controller) mapping() span {
	lo := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(c.mem))))
	return span{lo, lo + uint64(len(c.mem))}
}

// procEntries calls f with every entry of a /proc/self maps-format file:
// its range and, for smaps, the lines describing it.
func procEntries(t *testing.T, file string, f func(s span, fields []string)) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var cur span
	var fields []string
	flush := func() {
		if cur.hi != 0 {
			f(cur, fields)
		}
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var s span
		if _, err := fmt.Sscanf(sc.Text(), "%x-%x ", &s.lo, &s.hi); err == nil {
			flush()
			cur, fields = s, nil
			continue
		}
		fields = append(fields, sc.Text())
	}
	flush()
}

// mapped reports whether one mapping of the process covers all of s.
func mapped(t *testing.T, s span) bool {
	covered := false
	procEntries(t, "/proc/self/maps", func(m span, _ []string) {
		covered = covered || m.lo <= s.lo && s.hi <= m.hi
	})
	return covered
}

// residentKB reports the Rss of the smaps entry holding c's memory and that
// entry's range, which may take in neighbouring anonymous mappings the
// kernel merged with it: two readings compare only over the same range.
// The smaps Rss does not count a page mapped to the shared zero page;
// mincore does (its page table entry is present), so it cannot tell a read
// of never-written memory from a write.
func residentKB(t *testing.T, c *Controller) (span, int64) {
	t.Helper()
	at := c.mapping().lo
	var entry span
	kb := int64(-1)
	procEntries(t, "/proc/self/smaps", func(m span, fields []string) {
		if m.lo > at || at >= m.hi {
			return
		}
		for _, l := range fields {
			if _, err := fmt.Sscanf(l, "Rss: %d kB", &kb); err == nil {
				entry = m
				return
			}
		}
	})
	if kb < 0 {
		t.Fatalf("no smaps Rss for the mapping at %#x", at)
	}
	return entry, kb
}

// rssGrowth reports how many kB of resident memory access(attempt) adds to
// c's mapping. It measures again, with the next attempt, when a neighbouring
// mapping joined or left the smaps entry meanwhile.
func rssGrowth(t *testing.T, c *Controller, access func(attempt int)) int64 {
	t.Helper()
	for attempt := 0; ; attempt++ {
		before, kb0 := residentKB(t, c)
		access(attempt)
		after, kb1 := residentKB(t, c)
		if before == after || attempt == 3 {
			return kb1 - kb0
		}
	}
}

// Reading memory no one wrote maps the shared zero page and adds no RSS,
// wherever the read falls: a whole page, across a huge-page boundary (where
// the page table's chunks used to end), the partial last page, all of it.
// A write then makes its pages resident, so the measurement can see them.
func TestUnwrittenReadsAddNoRSS(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection: no neighbouring controller unmapped mid-test
	const size = 3*chunkBytes + pageBytes + 100
	c := New(Config{Size: size})
	reads := []struct {
		addr uint64
		n    int
	}{{0, pageBytes}, {chunkBytes - 3000, 6000}, {2*chunkBytes + 5, chunkBytes}, {size - 100, 100}, {0, size}}
	grown := rssGrowth(t, c, func(int) {
		for _, r := range reads {
			got, _, err := c.Read(r.addr, r.n)
			if err != nil || !bytes.Equal(got, make([]byte, r.n)) {
				t.Fatalf("read %#x+%d of never-written memory: not zero, %v", r.addr, r.n, err)
			}
		}
	})
	if grown != 0 {
		t.Fatalf("reading never-written memory added %d kB of RSS, want 0", grown)
	}
	// Two bytes straddling a page boundary: two pages, unless the kernel
	// backs the range with a huge page.
	grown = rssGrowth(t, c, func(attempt int) {
		if _, err := c.Write(chunkBytes-1+uint64(attempt)*2*pageBytes, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
	})
	if grown < 2*pageBytes/1024 {
		t.Fatalf("a write across a page boundary added %d kB of RSS, want at least %d", grown, 2*pageBytes/1024)
	}
}

// newUnreachable returns the memory range of a controller no one holds.
func newUnreachable(cfg Config) span { return New(cfg).mapping() }

// Once a controller is unreachable, a collection runs its cleanup and its
// mapping leaves the process; a reachable controller's stays.
//
//edmlint:allow walltime the cleanup runs on its own goroutine; the wait for it is bounded in real time
func TestUnreachableControllerIsUnmapped(t *testing.T) {
	cfg := Config{Size: 4 << 20}
	kept := New(cfg)
	if _, err := kept.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	gone := newUnreachable(cfg)
	if !mapped(t, gone) {
		t.Fatalf("a new controller's memory %#x-%#x is not in /proc/self/maps", gone.lo, gone.hi)
	}
	for deadline := time.Now().Add(5 * time.Second); mapped(t, gone); {
		if time.Now().After(deadline) {
			t.Fatalf("an unreachable controller's memory %#x-%#x is still mapped after 5 s of collections", gone.lo, gone.hi)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !mapped(t, kept.mapping()) {
		t.Fatal("a reachable controller's memory was unmapped")
	}
	if got, _, err := kept.Read(0, 1); err != nil || got[0] != 1 {
		t.Fatalf("a reachable controller read back %v, %v after collections", got, err)
	}
}
