package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.At(10*Nanosecond, func() {
		trace = append(trace, e.Now())
		e.After(5*Nanosecond, func() {
			trace = append(trace, e.Now())
		})
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10*Nanosecond || trace[1] != 15*Nanosecond {
		t.Fatalf("nested scheduling wrong: %v", trace)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*Nanosecond, func() {})
	})
	e.Run()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*Nanosecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt the engine: fired %d", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*Nanosecond, func() { count++ })
	}
	e.RunUntil(5 * Nanosecond)
	if count != 5 {
		t.Fatalf("RunUntil fired %d events, want 5", count)
	}
	if e.Now() != 5*Nanosecond {
		t.Fatalf("Now = %v, want 5ns", e.Now())
	}
	e.RunUntil(100 * Nanosecond)
	if count != 10 || e.Now() != 100*Nanosecond {
		t.Fatalf("second RunUntil: count=%d now=%v", count, e.Now())
	}
}

func TestTransmissionTime(t *testing.T) {
	cases := []struct {
		bytes int
		bw    Gbps
		want  Time
	}{
		{64, 100, 5120 * Picosecond},  // 64B at 100G = 5.12ns
		{8, 100, 640 * Picosecond},    // 8B at 100G = 0.64ns
		{64, 25, 20480 * Picosecond},  // 64B at 25G = 20.48ns
		{1500, 100, 120 * Nanosecond}, // MTU at 100G = 120ns
		{9000, 100, 720 * Nanosecond}, // jumbo at 100G = 720ns
		{0, 100, 0},
	}
	for _, c := range cases {
		if got := TransmissionTime(c.bytes, c.bw); got != c.want {
			t.Errorf("TransmissionTime(%d, %d) = %v, want %v", c.bytes, c.bw, got, c.want)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2560 * Picosecond, "2.56ns"},
		{3 * Microsecond, "3.000us"},
		{-Nanosecond, "-1.00ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// Property: transmission time is monotone in size and additive within
// rounding (t(a)+t(b) >= t(a+b) >= t(a+b)-1ps).
func TestTransmissionTimeProperties(t *testing.T) {
	f := func(a, b uint16) bool {
		ta := TransmissionTime(int(a), 100)
		tb := TransmissionTime(int(b), 100)
		tab := TransmissionTime(int(a)+int(b), 100)
		if tab < ta || tab < tb {
			return false
		}
		sum := ta + tb
		return tab <= sum && tab >= sum-2*Picosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: engine dispatch order respects (time, insertion) lexicographic
// order for arbitrary schedules.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		type stamp struct {
			at  Time
			seq int
		}
		var fired []stamp
		for i, d := range delays {
			at := Time(d) * Nanosecond
			i := i
			e.At(at, func() { fired = append(fired, stamp{at, i}) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at {
				return false
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
