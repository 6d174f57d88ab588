package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/rmem"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// syncBuf is a goroutine-safe writer the daemon logs to while a test pokes
// at it concurrently.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestEdmdHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-h"}, nil, &out, &errb); err != nil {
		t.Fatalf("-h should exit cleanly, got %v", err)
	}
}

func TestEdmdUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-listen"},          // flag parse failure
		{"-slab", "-1"},      // invalid slab
		{"-duration", "-1s"}, // negative duration
		{"stray-arg"},        // unexpected positional
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		err := run(args, nil, &out, &errb)
		var ue cli.UsageError
		if !errors.Is(err, cli.ErrFlagParse) && !errors.As(err, &ue) {
			t.Errorf("edmd %v: got %v, want a usage error", args, err)
		}
	}
}

// TestEdmdServesAndReportsStats boots the daemon on an ephemeral port,
// drives it with an rmem client, stops it, and checks the lifecycle log.
func TestEdmdServesAndReportsStats(t *testing.T) {
	out := &syncBuf{}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-slab", "1048576"},
			stop, out, out)
	}()

	// Wait for the listening line to learn the bound address.
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address:\n%s", out.String())
	}

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
	if g := client.Geometry(); g.SlabBytes != 1048576 {
		t.Fatalf("advertised geometry %+v", g)
	}
	if err := client.WriteSync(0, []byte("daemon")); err != nil {
		t.Fatal(err)
	}
	got, err := client.ReadSync(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "daemon" {
		t.Fatalf("read back %q", got)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not stop on signal")
	}
	log := out.String()
	for _, want := range []string{
		`served reads 1 writes 1`, `sessions hello 1 bye 1`,
		`udp rx parks \d+ empty polls \d+, tx datagrams [1-9]\d* msgs [1-9]\d* lone \d+`,
	} {
		if !regexp.MustCompile(want).MatchString(log) {
			t.Errorf("lifecycle log missing %q:\n%s", want, log)
		}
	}
}

// TestEdmdMultiNode boots -nodes 3 in one process, connects to each node,
// and checks the slabs are independent (same address, different contents).
func TestEdmdMultiNode(t *testing.T) {
	out := &syncBuf{}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-nodes", "3", "-slab", "1048576"},
			stop, out, out)
	}()
	t.Cleanup(func() {
		stop <- os.Interrupt
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("daemon did not stop on signal")
		}
	})

	nodeRe := regexp.MustCompile(`node (\d) listening on (\S+)`)
	addrs := map[string]string{}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		for _, m := range nodeRe.FindAllStringSubmatch(out.String(), -1) {
			addrs[m[1]] = m[2]
		}
		if len(addrs) == 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(addrs) != 3 {
		t.Fatalf("daemon reported %d node addresses, want 3:\n%s", len(addrs), out.String())
	}

	for i := 0; i < 3; i++ {
		uc, err := wire.DialUDP(addrs[strconv.Itoa(i)])
		if err != nil {
			t.Fatal(err)
		}
		client := rmem.NewClient(uc, rmem.ClientConfig{
			Retry: wire.ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10}})
		go uc.Run(client.Deliver)
		if err := client.Connect(); err != nil {
			t.Fatalf("connect node %d: %v", i, err)
		}
		payload := []byte{byte('A' + i)}
		if err := client.WriteSync(0, payload); err != nil {
			t.Fatalf("write node %d: %v", i, err)
		}
		got, err := client.ReadSync(0, 1)
		if err != nil || got[0] != payload[0] {
			t.Fatalf("node %d slab not independent: %q, %v", i, got, err)
		}
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEdmdDuration: a timed run exits on its own.
func TestEdmdDuration(t *testing.T) {
	var out syncBuf
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-duration", "100ms"}, nil, &out, &out)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("timed run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("-duration run never exited")
	}
}

// TestEdmdMetricsEndpoint boots the daemon with the HTTP admin endpoint and
// the trace ring enabled, drives a few ops through it, and checks that
// /healthz answers, /metrics exposes per-opcode series, and /debug/traceops
// returns the op records.
func TestEdmdMetricsEndpoint(t *testing.T) {
	out := &syncBuf{}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
			"-trace-ops", "64", "-slab", "1048576"},
			stop, out, out)
	}()
	t.Cleanup(func() {
		stop <- os.Interrupt
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("daemon did not stop on signal")
		}
	})

	udpRe := regexp.MustCompile(`listening on (\S+)`)
	httpRe := regexp.MustCompile(`metrics on http://(\S+)/metrics`)
	var udpAddr, httpAddr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		log := out.String()
		um, hm := udpRe.FindStringSubmatch(log), httpRe.FindStringSubmatch(log)
		if um != nil && hm != nil {
			udpAddr, httpAddr = um[1], hm[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if udpAddr == "" || httpAddr == "" {
		t.Fatalf("daemon never reported both addresses:\n%s", out.String())
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + httpAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return string(body)
	}
	if h := get("/healthz"); h != "ok\n" {
		t.Errorf("/healthz = %q, want ok", h)
	}

	uc, err := wire.DialUDP(udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	client := rmem.NewClient(uc, rmem.ClientConfig{
		Retry: wire.ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10}})
	go uc.Run(client.Deliver)
	if err := client.Connect(); err != nil {
		t.Fatalf("connect to daemon: %v", err)
	}
	if err := client.WriteSync(0, []byte("metrics")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReadSync(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`rmem_server_ops_total{op="read"} 1`,
		`rmem_server_ops_total{op="write"} 1`,
		`rmem_server_op_latency_ns_bucket{op="read"`,
		`rmem_server_op_latency_ns_count{op="read"} 1`,
		`wire_udp_sessions_started_total 1`,
		`wire_server_requests_total`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	traces := get("/debug/traceops")
	var recs []telemetry.OpRecord
	if err := json.Unmarshal([]byte(traces), &recs); err != nil {
		t.Fatalf("/debug/traceops: %v\n%s", err, traces)
	}
	// HELLO + WRITE + READ + BYE each leave one serve-stage record.
	if len(recs) < 4 {
		t.Errorf("/debug/traceops has %d records, want >= 4:\n%s", len(recs), traces)
	}
	for _, r := range recs {
		if r.Stage != telemetry.StageServe {
			t.Errorf("trace record stage %v, want %v", r.Stage, telemetry.StageServe)
		}
	}

	snapJSON := get("/metrics.json")
	if !strings.Contains(snapJSON, `rmem_server_ops_total{op=\"read\"}`) {
		t.Errorf("/metrics.json missing read counter:\n%s", snapJSON)
	}
}
