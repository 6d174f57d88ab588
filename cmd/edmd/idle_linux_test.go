package main

import (
	"os"
	"regexp"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/rmem"
	"repro/internal/wire"
)

// cpuTime is the process's on-CPU time so far, user plus system.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestEdmdIdleBurnsNothing: the ingress loops poll for one window after
// traffic and then block, so a daemon that has served a client and is left
// alone for 500 ms accrues under 5 ms of CPU time — this whole test process's,
// which is a little more than the daemon's. A loop that kept polling would
// burn the full 500 ms.
func TestEdmdIdleBurnsNothing(t *testing.T) {
	out := &syncBuf{}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-slab", "1048576"},
			stop, out, out)
	}()
	defer func() {
		stop <- os.Interrupt
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("daemon did not stop on signal")
		}
	}()
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == "" && time.Now().Before(deadline); {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address:\n%s", out.String())
	}

	// Traffic first: the loop that serves it has been in the polled regime.
	uc, err := wire.DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client := rmem.NewClient(uc, rmem.ClientConfig{
		Retry: wire.ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10}})
	go uc.Run(client.Deliver)
	if err := client.Connect(); err != nil {
		t.Fatalf("connect to daemon: %v", err)
	}
	for i := 0; i < 100; i++ {
		if _, err := client.ReadSync(0, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	runtime.GC() // not during the measured interval
	time.Sleep(10 * time.Millisecond)
	before := cpuTime(t)
	time.Sleep(500 * time.Millisecond)
	if burned := cpuTime(t) - before; burned >= 5*time.Millisecond {
		t.Errorf("idle daemon burned %v of CPU in 500 ms, want under 5 ms", burned)
	} else {
		t.Logf("idle daemon: %v of CPU in 500 ms", burned)
	}
}
