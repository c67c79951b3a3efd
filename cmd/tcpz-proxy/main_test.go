package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestRunShutsDownOnCancel: cancelling run's context shuts the proxy down
// cleanly — run returns nil within 2 s and the listening port is closed.
func TestRunShutsDownOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, stdout := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-backend", "127.0.0.1:1"}, stdout)
		stdout.Close()
	}()

	// The banner names the bound address: "tcpz-proxy: <addr> -> ...".
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("reading banner: %v", err)
	}
	go io.Copy(io.Discard, out)
	fields := strings.Fields(line)
	if len(fields) < 2 {
		t.Fatalf("banner %q names no address", line)
	}
	addr := fields[1]
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("proxy not listening on %s: %v", addr, err)
	}
	conn.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not return within 2 s of cancel")
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("%s still accepts connections after shutdown", addr)
	}
}
