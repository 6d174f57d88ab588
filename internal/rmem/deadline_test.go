package rmem

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// TestErrDeadlineTyped pins the retry-budget-exhaustion contract: the error
// matches wire.ErrTimeout (the triage the cluster layer keys failover on) and
// reaches the caller as the reliable layer reported it, while status errors
// from the server do not masquerade as deadlines.
func TestErrDeadlineTyped(t *testing.T) {
	var dark atomic.Bool
	fault := func(sim.Time, wire.Dir, []byte) wire.Fault {
		if dark.Load() {
			return wire.FaultDrop
		}
		return wire.FaultNone
	}
	_, client, _ := loopClient(t, nil,
		ClientConfig{Window: 4, Retry: wire.ConnConfig{RetryTimeout: time.Millisecond, MaxRetries: 1}},
		fault)

	// A server status error (out-of-range read) is NOT a deadline.
	_, err := client.ReadSync(1<<60, 64)
	if err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("status error %v matches wire.ErrTimeout", err)
	}

	// Darken the link: the retry budget burns down and the failure is typed.
	dark.Store(true)
	_, err = client.ReadSync(0, 64)
	if err == nil {
		t.Fatal("read over dark link succeeded")
	}
	if !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("err = %v, want match for wire.ErrTimeout", err)
	}
	if !strings.HasSuffix(err.Error(), "(after 2 attempts)") {
		t.Fatalf("err = %v, want the reliable layer's attempt count preserved", err)
	}
	if err := client.WriteSync(0, make([]byte, 8)); !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("write err = %v, want match for wire.ErrTimeout", err)
	}
}
