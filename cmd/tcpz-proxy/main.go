// Command tcpz-proxy runs a puzzle-verifying front-end proxy (§7): it
// accepts TCP connections, requires each client to solve a puzzle at the
// configured difficulty, and splices verified connections to a backend.
// SIGINT or SIGTERM stops accepting and drains the preambles and splices
// in flight for up to 10 s before closing what remains.
//
// Usage:
//
//	tcpz-proxy -listen :8080 -backend 127.0.0.1:80 -k 2 -m 17
//	tcpz-proxy -listen :8080 -backend 127.0.0.1:80 -pending 64   # opportunistic
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/puzzlenet"
)

// drainTimeout bounds how long a shutdown waits for in-flight preambles
// and splices before force-closing them.
const drainTimeout = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpz-proxy:", err)
		os.Exit(1)
	}
}

// run serves until ctx is done, then shuts the proxy down with a bounded
// drain. It returns nil after a clean shutdown.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tcpz-proxy", flag.ContinueOnError)
	listen := fs.String("listen", ":8080", "address to listen on")
	backend := fs.String("backend", "127.0.0.1:80", "backend address")
	k := fs.Int("k", 2, "solutions per challenge")
	m := fs.Int("m", 17, "difficulty bits per solution")
	l := fs.Int("l", 32, "preimage/solution length in bits")
	maxAge := fs.Duration("maxage", 30*time.Second, "challenge replay window")
	pending := fs.Int("pending", 0, "challenge only above this many pending verifications (0 = always)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	params := puzzle.Params{K: uint8(*k), M: uint8(*m), L: uint8(*l)}
	issuer, err := puzzle.NewIssuer(puzzle.WithParams(params), puzzle.WithMaxAge(*maxAge))
	if err != nil {
		return err
	}
	opts := []puzzlenet.ListenerOption{puzzlenet.WithHandshakeTimeout(*maxAge)}
	if *pending > 0 {
		opts = append(opts, puzzlenet.WithPolicy(puzzlenet.PolicyPending{Threshold: *pending}))
	}
	ln, err := puzzlenet.Listen(*listen, issuer, opts...)
	if err != nil {
		return err
	}
	proxy := puzzlenet.NewProxy(ln, *backend)
	fmt.Fprintf(stdout, "tcpz-proxy: %s -> %s, difficulty %v (≈%.0f hashes/solve)\n",
		ln.Addr(), *backend, params, params.ExpectedSolveHashes())
	served := make(chan error, 1)
	go func() { served <- proxy.Serve() }()
	select {
	case err := <-served:
		_ = proxy.Close()
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := proxy.Shutdown(drain)
	if err := <-served; err != nil {
		return err
	}
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	return nil
}
