package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"truthroute/internal/obs"
	"truthroute/internal/serve"
)

// RunTruthrouted runs the quote-serving daemon: it loads a NodeGraph
// topology, shards it by connected component, and serves payment
// quotes and batched cost updates over HTTP until SIGINT/SIGTERM,
// then drains gracefully (in-flight requests finish, new work gets
// 503) before exiting 0.
func RunTruthrouted(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("truthrouted", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topo := fs.String("topology", "", "NodeGraph JSON file to serve (required; netgen -model node emits it)")
	addr := fs.String("addr", "127.0.0.1:8437", "HTTP listen address (port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound HTTP address to this file once listening (for scripts with port 0)")
	binAddr := fs.String("binary-addr", "", "also serve the binary quote protocol (DESIGN.md §15) on this TCP address (empty = HTTP only)")
	binAddrFile := fs.String("binary-addr-file", "", "write the bound binary address to this file once listening")
	maxInflight := fs.Int("max-inflight", serve.DefaultMaxInFlight, "admitted in-flight request bound; excess load is refused with 429")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *topo == "" {
		fmt.Fprintln(stderr, "truthrouted: -topology is required")
		return 2
	}
	g, err := loadNodeGraph(*topo)
	if err != nil {
		fmt.Fprintln(stderr, "truthrouted:", err)
		return 1
	}

	// The daemon always turns the obs layer on: its own mux serves
	// /metrics and /debug/pprof (serve.New mounts them), and the
	// serve.* counters are the operational surface.
	obs.Reset()
	obs.Enable()
	srv := serve.New(g, serve.Config{MaxInFlight: *maxInflight})

	// Register the signal handler before the bound address becomes
	// visible (stdout, -addr-file): a supervisor that reads the
	// address and immediately signals must not kill us by default
	// disposition.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	ln, err := listen(*addr, *addrFile)
	if err != nil {
		fmt.Fprintln(stderr, "truthrouted:", err)
		return 1
	}
	fmt.Fprintf(stdout, "truthrouted: serving %d nodes in %d shards on %s\n",
		srv.N(), srv.NumShards(), ln.Addr())

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// The binary plane listens next to HTTP: same server, same
	// snapshots, same drain. berrc stays nil (never ready) when the
	// binary listener is disabled.
	var berrc chan error
	if *binAddr != "" {
		bln, err := listen(*binAddr, *binAddrFile)
		if err != nil {
			fmt.Fprintln(stderr, "truthrouted:", err)
			_ = ln.Close()
			return 1
		}
		fmt.Fprintf(stdout, "truthrouted: binary quote protocol on %s\n", bln.Addr())
		berrc = make(chan error, 1)
		go func() { berrc <- srv.ServeBinary(bln) }()
	}

	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "truthrouted: %v: draining\n", sig)
		srv.Drain()
		if err := hs.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(stderr, "truthrouted: shutdown:", err)
			return 1
		}
		<-errc // Serve has returned ErrServerClosed
		if berrc != nil {
			// Drain closed the binary listener; ServeBinary reports
			// ErrServerDraining for the clean path.
			if err := <-berrc; err != nil && err != serve.ErrServerDraining {
				fmt.Fprintln(stderr, "truthrouted: binary serve:", err)
				return 1
			}
		}
		fmt.Fprintln(stdout, "truthrouted: drained")
		return 0
	case err := <-errc:
		fmt.Fprintln(stderr, "truthrouted: serve:", err)
		return 1
	case err := <-berrc:
		fmt.Fprintln(stderr, "truthrouted: binary serve:", err)
		return 1
	}
}

// listen binds addr and, when addrFile is set, writes the bound
// address to it, so scripts that listen on port 0 learn the port.
func listen(addr, addrFile string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			_ = ln.Close()
			return nil, err
		}
	}
	return ln, nil
}
