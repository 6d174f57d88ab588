// Command edmd is the live memory-node daemon: it serves the EDM message
// vocabulary (RREQ/WREQ/RMWREQ and the session handshake) over reliable UDP
// against a slab of memory with memctl-style semantics, including the
// NIC-side atomic RMW menu of §3.2.1. Drive it with cmd/edmload and compare
// the measured percentiles against cmd/edmsim's simulated ones.
//
// Usage:
//
//	edmd -listen 127.0.0.1:7979 -slab 67108864
//	edmd -listen 127.0.0.1:0 -duration 10s   # ephemeral port, timed run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/rmem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	cli.Exit("edmd", run(os.Args[1:], sig, os.Stdout, os.Stderr))
}

// splitListen parses -listen into a host and a numeric base port (0 means
// every node binds an ephemeral port).
func splitListen(listen string) (host string, port int, err error) {
	host, ps, err := net.SplitHostPort(listen)
	if err != nil {
		return "", 0, fmt.Errorf("edmd: bad -listen %q: %w", listen, err)
	}
	port, err = strconv.Atoi(ps)
	if err != nil || port < 0 || port > 65535 {
		return "", 0, fmt.Errorf("edmd: bad -listen port %q", ps)
	}
	return host, port, nil
}

// run is the testable entry point: flags in, lifecycle log out. stop ends
// the daemon early (main wires it to SIGINT/SIGTERM).
func run(args []string, stop <-chan os.Signal, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("edmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:7979", "UDP listen address (host:port; port 0 picks a free one)")
	nodes := fs.Int("nodes", 1, "memory nodes served by this process, each its own slab, on consecutive ports from -listen (port 0: all ephemeral)")
	slab := fs.Int64("slab", 64<<20, "slab size in bytes (per node)")
	dupWindow := fs.Int("dup-window", 0, "call slots a session may use, one retained response each (0 or above 4096 = 4096)")
	duration := fs.Duration("duration", 0, "serve for this long then exit (0 = until SIGINT/SIGTERM)")
	metricsAddr := fs.String("metrics", "", "HTTP admin address serving /metrics, /healthz, /debug/pprof (empty = off)")
	traceOps := fs.Int("trace-ops", 0, "keep the last N per-op trace records, served at /debug/traceops (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return cli.ErrFlagParse
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", fs.Arg(0))
	}
	if *slab <= 0 {
		return cli.Usagef("-slab must be positive, got %d", *slab)
	}
	if *nodes < 1 {
		return cli.Usagef("-nodes must be at least 1, got %d", *nodes)
	}
	if *duration < 0 {
		return cli.Usagef("-duration must not be negative")
	}

	// One registry backs the server's operation counters, the responder's
	// reliability counters, the UDP session lifecycle, and (when enabled)
	// the /metrics endpoint. Per-opcode service-time histograms need a
	// clock; it is wired only when someone can see them.
	reg := telemetry.NewRegistry()
	var ring *telemetry.TraceRing
	if *traceOps > 0 {
		ring = telemetry.NewTraceRing(*traceOps)
	}
	var nowNS func() int64
	if *metricsAddr != "" || ring != nil {
		nowNS = func() int64 { return time.Now().UnixNano() }
	}
	// One process can host a whole memory cluster: node i gets its own slab
	// and UDP listener on -listen's port + i (all ephemeral when port 0).
	// The shared registry makes every log and /metrics series an aggregate
	// over the nodes.
	host, basePort, err := splitListen(*listen)
	if err != nil {
		return cli.UsageError{S: err.Error()}
	}
	listeners := make([]*wire.UDPServer, *nodes)
	closeAll := func() {
		for _, us := range listeners {
			if us != nil {
				us.Close()
			}
		}
	}
	sm, rm, um := rmem.NewServerMetrics(reg), wire.NewResponderMetrics(reg), wire.NewUDPServerMetrics(reg)
	for i := range listeners {
		srv, err := rmem.NewServer(rmem.ServerConfig{
			Geometry:  rmem.Geometry{SlabBytes: uint64(*slab)},
			DupWindow: *dupWindow,
			Metrics:   sm,
			Responder: rm,
			NowNS:     nowNS,
			Trace:     ring,
		})
		if err != nil {
			closeAll()
			return cli.UsageError{S: err.Error()}
		}
		addr := net.JoinHostPort(host, strconv.Itoa(0))
		if basePort != 0 {
			addr = net.JoinHostPort(host, strconv.Itoa(basePort+i))
		}
		// Session lifecycle (fresh session per HELLO, retirement on BYE,
		// idle expiry) is handled by wire.UDPServer's ingress loops.
		us, err := wire.ListenUDP(addr, um, func(reply wire.Pipe) func([]byte) {
			return srv.NewSession(reply).Deliver
		})
		if err != nil {
			closeAll()
			return err
		}
		listeners[i] = us
		g := srv.Geometry()
		if *nodes == 1 {
			fmt.Fprintf(stdout, "edmd: listening on %s (slab %d B)\n", us.Addr(), g.SlabBytes)
		} else {
			fmt.Fprintf(stdout, "edmd: node %d listening on %s (slab %d B)\n", i, us.Addr(), g.SlabBytes)
		}
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			closeAll()
			return fmt.Errorf("edmd: metrics listen %s: %w", *metricsAddr, err)
		}
		defer ln.Close()
		go http.Serve(ln, telemetry.AdminMux(reg, ring))
		fmt.Fprintf(stdout, "edmd: metrics on http://%s/metrics\n", ln.Addr())
	}

	if *duration > 0 {
		select {
		case <-time.After(*duration):
		case <-stop:
		}
	} else {
		<-stop
	}
	var closeErr error
	for _, us := range listeners {
		if err := us.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	if closeErr != nil {
		return closeErr
	}
	// The exit log is a view of the same registry the /metrics endpoint
	// serves: every node counts on the one sm, so the totals span all -nodes.
	ops := sm.Ops
	fmt.Fprintf(stdout, "edmd: served reads %d writes %d rmws %d (%d B out, %d B in), errors %d\n",
		ops[wire.KindRREQ].Load(), ops[wire.KindWREQ].Load(), ops[wire.KindRMWREQ].Load(),
		sm.BytesRead.Load(), sm.BytesWritten.Load(), sm.Errors.Load())
	fmt.Fprintf(stdout, "edmd: sessions hello %d bye %d, modeled DRAM time %v\n",
		ops[wire.KindHello].Load(), ops[wire.KindBye].Load(), sim.Time(sm.ModeledDRAMPS.Load()))
	snap := reg.Snapshot()
	fmt.Fprintf(stdout, "edmd: wire replays %d stale %d garbage %d rejected %d, sessions started %d reset %d expired %d\n",
		snap.Counters["wire_server_replays_total"], snap.Counters["wire_server_stale_total"], snap.Counters["wire_server_garbage_total"],
		snap.Counters["wire_server_rejected_total"], snap.Counters["wire_udp_sessions_started_total"],
		snap.Counters["wire_udp_session_resets_total"], snap.Counters["wire_udp_sessions_expired_total"])
	fmt.Fprintf(stdout, "edmd: udp rx parks %d empty polls %d, tx datagrams %d msgs %d lone %d\n",
		snap.Counters["wire_udp_rx_parks_total"], snap.Counters["wire_udp_rx_empty_polls_total"],
		snap.Counters["wire_udp_tx_datagrams_total"], snap.Counters["wire_udp_tx_msgs_total"],
		snap.Counters["wire_udp_tx_lone_total"])
	return nil
}
