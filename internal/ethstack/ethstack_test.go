package ethstack

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/transport"
)

func fastMem() *memctl.Controller {
	cfg := memctl.DefaultConfig()
	cfg.Untimed = true
	return memctl.New(cfg)
}

func newNet(t *testing.T, ports int) *Network {
	t.Helper()
	n := New(ports)
	n.Host(ports - 1).AttachMemory(fastMem())
	return n
}

func TestReadWriteRoundTrip(t *testing.T) {
	n := newNet(t, 2)
	data := bytes.Repeat([]byte{0xab}, 64)
	if _, err := n.WriteSync(0, 1, 4096, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := n.ReadSync(0, 1, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

// TestUnloadedLatencyMatchesTable1 is the point of this package: the
// measured frame-level latency must land on the paper's raw-Ethernet rows
// (1.11 us read, 557 ns write) within the serialization terms the
// component model folds into TD+PD.
func TestUnloadedLatencyMatchesTable1(t *testing.T) {
	n := newNet(t, 2)
	if _, err := n.Host(1).Memory().Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_, readLat, err := n.ReadSync(0, 1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	writeLat, err := n.WriteSync(0, 1, 4096, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	paperRead := float64(transport.Table1(transport.StackRawEthernet, false).Total())
	paperWrite := float64(transport.Table1(transport.StackRawEthernet, true).Total())
	devR := math.Abs(float64(readLat)-paperRead) / paperRead
	devW := math.Abs(float64(writeLat)-paperWrite) / paperWrite
	t.Logf("raw Ethernet measured: read %v (paper %.0fns, %.1f%%), write %v (paper %.0fns, %.1f%%)",
		readLat, paperRead/1000, devR*100, writeLat, paperWrite/1000, devW*100)
	// Allow 25%: the component model excludes frame serialization
	// (~27-30ns per hop at 25G) and store-and-forward buffering.
	if devR > 0.25 || devW > 0.25 {
		t.Fatalf("measured raw-Ethernet latency too far from Table 1")
	}
}

// TestRawEthernetSlowerThanEDM: the two measured fabrics, same memory
// workload — the frame-level stack pays the MAC/L2 penalty.
func TestRawEthernetSlowerThanEDM(t *testing.T) {
	n := newNet(t, 2)
	if _, err := n.Host(1).Memory().Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_, raw, err := n.ReadSync(0, 1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// EDM measured ~312ns (see internal/edm tests); raw must be several
	// times slower.
	if raw < 2*312*sim.Nanosecond {
		t.Fatalf("raw Ethernet read %v suspiciously fast", raw)
	}
}

func TestIncastQueuesAtSwitch(t *testing.T) {
	// 8 senders writing to one memory node simultaneously: the egress
	// queue must grow (limitation 6) — contrast with EDM's zero-queue
	// switch (edm.TestZeroQueuingAtSwitch).
	const senders = 8
	n := New(senders + 1)
	n.Host(senders).AttachMemory(fastMem())
	done := 0
	for i := 0; i < senders; i++ {
		if err := n.Host(i).Write(senders, uint64(i)*4096, make([]byte, 1400), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run()
	if done != senders {
		t.Fatalf("completed %d", done)
	}
	if q := n.MaxEgressQueue(); q < 3*1400 {
		t.Fatalf("egress queue max %dB; expected a deep incast backlog", q)
	}
}

func TestSmallMessagePaysMinFrame(t *testing.T) {
	// An 8 B read and a 28 B one cost the same on the wire
	// (limitation 1): identical unloaded latency.
	n1 := newNet(t, 2)
	if _, err := n1.Host(1).Memory().Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_, lat8, err := n1.ReadSync(0, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	n2 := newNet(t, 2)
	if _, err := n2.Host(1).Memory().Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_, lat28, err := n2.ReadSync(0, 1, 0, 28)
	if err != nil {
		t.Fatal(err)
	}
	// Both responses (14B header + data) fit the 64B minimum frame: same
	// latency despite 3.5x the data.
	if lat8 != lat28 {
		t.Fatalf("8B read %v != 28B read %v: min-frame padding not charged", lat8, lat28)
	}
}

func TestReadTimeout(t *testing.T) {
	n := New(2) // no memory attached anywhere
	var gotErr error
	if err := n.Host(0).Read(1, 0, 64, func(_ []byte, err error) { gotErr = err }); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v", gotErr)
	}
	if n.Host(0).Timeouts() != 1 {
		t.Fatal("timeout not counted")
	}
}

func TestManyOutstandingReads(t *testing.T) {
	n := newNet(t, 3)
	mem := n.Host(2).Memory()
	for i := 0; i < 16; i++ {
		if _, err := mem.Write(uint64(i)*128, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	done := 0
	for i := 0; i < 16; i++ {
		i := i
		src := i % 2
		if err := n.Host(src).Read(2, uint64(i)*128, 64, func(d []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if d[0] != byte(i+1) {
				t.Errorf("read %d wrong data %d", i, d[0])
			}
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run()
	if done != 16 {
		t.Fatalf("completed %d of 16", done)
	}
}
