package puzzlenet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/puzzlenet/netfault"
)

// chaosConns is the adversarial connection count the chaos suite drives
// against one listener — the acceptance bar is "hundreds".
const chaosConns = 240

// runAdversary opens one adversarial connection of the given kind against
// addr and misbehaves until the server hangs up or the budget elapses.
// Kinds cycle through the failure modes the simulator models: stalls,
// garbage, truncated frames, mid-preamble resets, and slow-loris trickle.
func runAdversary(kind int, addr string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
	switch kind % 5 {
	case 0:
		// Stall: read the challenge, answer nothing.
		_, _, _ = readFrame(conn)
		buf := make([]byte, 64)
		_, _ = conn.Read(buf) // blocks until the handshake deadline kills us
	case 1:
		// Garbage: raw application bytes instead of a SOLUTION frame.
		_, _ = conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
		_, _, _ = readFrame(conn)
	case 2:
		// Truncated frame: a SOLUTION header promising more than we send.
		fc := netfault.New(conn, netfault.Fault{TruncateWritesAfter: 5})
		_, _ = fc.Write([]byte{frameSolution, 0x00, 0x40, 0xde, 0xad, 0xbe, 0xef})
	case 3:
		// Mid-preamble reset: RST right after the challenge arrives.
		_, _, _ = readFrame(conn)
		if tcp, ok := conn.(*net.TCPConn); ok {
			_ = tcp.SetLinger(0)
		}
	case 4:
		// Slow loris: trickle a byte of garbage at a time.
		fc := netfault.New(conn, netfault.Fault{ChunkBytes: 1, WriteDelay: 20 * time.Millisecond})
		_, _ = fc.Write([]byte{frameSolution, 0x01, 0xff, 0x00, 0x00, 0x00, 0x00})
		_, _, _ = readFrame(conn)
	}
}

// TestChaosAdversarialFlood drives hundreds of misbehaving connections at
// a limited listener while honest solving dialers keep arriving: the tier
// must keep serving the honest clients, shed over-limit load with fast
// REJECTs, and drain to zero goroutines inside the Shutdown deadline.
func TestChaosAdversarialFlood(t *testing.T) {
	leakCheck(t)
	issuer, err := puzzle.NewIssuer(puzzle.WithParams(testParams))
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	l, err := Listen("127.0.0.1:0", issuer,
		WithHandshakeTimeout(500*time.Millisecond),
		WithMaxPending(64),
	)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	echoAccepted(t, l)
	addr := l.Addr().String()

	var wg sync.WaitGroup
	for i := 0; i < chaosConns; i++ {
		wg.Add(1)
		go func(kind int) {
			defer wg.Done()
			runAdversary(kind, addr)
		}(i)
	}

	// Honest clients, retrying when the flood sheds them.
	const good = 16
	goodErrs := make(chan error, good)
	for i := 0; i < good; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &Dialer{HandshakeTimeout: 2 * time.Second}
			var lastErr error
			for attempt := 0; attempt < 40; attempt++ {
				conn, err := d.Dial("tcp", addr)
				if err != nil {
					lastErr = err
					time.Sleep(50 * time.Millisecond)
					continue
				}
				_, werr := conn.Write([]byte("x"))
				_, rerr := io.ReadFull(conn, make([]byte, 1))
				_ = conn.Close()
				if werr == nil && rerr == nil {
					goodErrs <- nil
					return
				}
				lastErr = errors.Join(werr, rerr)
				time.Sleep(50 * time.Millisecond)
			}
			goodErrs <- fmt.Errorf("good client starved: %w", lastErr)
		}()
	}
	wg.Wait()
	close(goodErrs)
	for err := range goodErrs {
		if err != nil {
			t.Error(err)
		}
	}

	stats := l.Stats()
	if stats.Verified < good {
		t.Errorf("Verified = %d, want >= %d honest clients", stats.Verified, good)
	}
	// No adversary completes a SOLUTION frame, so none can pass Verify
	// whatever the random secret: false-accept probability 0.
	if stats.Rejected+stats.Errors == 0 {
		t.Error("no adversarial connection was rejected or errored")
	}
	t.Logf("chaos stats: %+v", stats)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := l.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("Shutdown took %v, want within the 3s deadline", elapsed)
	}
}

// TestChaosProxyFloodWithFaultyNetwork runs the full proxy tier under an
// adversarial flood while the network under the listener injects
// byte-level delays and truncations, and asserts honest clients still get
// end-to-end echo service through the backend.
func TestChaosProxyFloodWithFaultyNetwork(t *testing.T) {
	leakCheck(t)
	backendAddr := newEchoBackend(t)
	issuer, err := puzzle.NewIssuer(puzzle.WithParams(testParams))
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	// Every 7th accepted conn gets a jittery read path; every 11th is
	// hard-reset mid-preamble — faults injected below the puzzle layer.
	faulty := &netfault.Listener{Listener: inner, Plan: func(i int, _ net.Conn) netfault.Fault {
		switch {
		case i%11 == 3:
			return netfault.Fault{CloseAfter: 10 * time.Millisecond}
		case i%7 == 2:
			return netfault.Fault{ReadDelay: 5 * time.Millisecond, WriteDelay: 5 * time.Millisecond}
		default:
			return netfault.Fault{}
		}
	}}
	l := NewListener(faulty, issuer,
		WithHandshakeTimeout(500*time.Millisecond),
		WithMaxPending(64),
	)
	p := NewProxy(l, backendAddr, WithIdleTimeout(2*time.Second))
	go func() { _ = p.Serve() }()
	addr := inner.Addr().String()

	var wg sync.WaitGroup
	for i := 0; i < 120; i++ {
		wg.Add(1)
		go func(kind int) {
			defer wg.Done()
			runAdversary(kind, addr)
		}(i)
	}
	const good = 12
	var succeeded int
	var mu sync.Mutex
	for i := 0; i < good; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &Dialer{HandshakeTimeout: 2 * time.Second}
			for attempt := 0; attempt < 40; attempt++ {
				conn, err := d.Dial("tcp", addr)
				if err != nil {
					time.Sleep(50 * time.Millisecond)
					continue
				}
				_, werr := conn.Write([]byte("y"))
				_, rerr := io.ReadFull(conn, make([]byte, 1))
				_ = conn.Close()
				if werr == nil && rerr == nil {
					mu.Lock()
					succeeded++
					mu.Unlock()
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	// The faulty network can reset any individual attempt, but the tier
	// must keep serving: require a clear majority of honest clients
	// through, not a lucky few.
	if succeeded < good*3/4 {
		t.Errorf("only %d/%d honest clients served through the faulty network", succeeded, good)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestChaosDeadBackend floods a proxy whose backend refuses every
// connection: the breaker must open, DegradeShed must stop burning dials,
// and the drain must stay leak-free.
func TestChaosDeadBackend(t *testing.T) {
	leakCheck(t)
	l, _ := newTestListener(t, WithHandshakeTimeout(time.Second))
	p := NewProxy(l, "127.0.0.1:1",
		WithBackendDialContext(netfault.Refuse()),
		WithBackendRetry(1, 5*time.Millisecond, 20*time.Millisecond),
		WithBreaker(4, 500*time.Millisecond),
		WithDegradedMode(DegradeShed),
	)
	go func() { _ = p.Serve() }()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &Dialer{HandshakeTimeout: 2 * time.Second}
			conn, err := d.Dial("tcp", l.Addr().String())
			if err != nil {
				return
			}
			// Preamble verified; the splice then fails on the dead
			// backend and the proxy closes us.
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			_, _ = conn.Read(make([]byte, 1))
			_ = conn.Close()
		}()
	}
	wg.Wait()

	st := p.Stats()
	if st.BackendFailures == 0 {
		t.Error("no backend failures recorded against a dead backend")
	}
	if st.BreakerOpens == 0 {
		t.Error("breaker never opened against a dead backend")
	}
	if st.BackendShed == 0 {
		t.Error("DegradeShed never shed while the breaker was open")
	}
	t.Logf("dead-backend stats: %+v", st)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestChaosBlackholeBackend points the proxy at a backend that swallows
// dials without answering: the dial timeout must bound every splice and
// shutdown must not wait on the void.
func TestChaosBlackholeBackend(t *testing.T) {
	leakCheck(t)
	l, _ := newTestListener(t, WithHandshakeTimeout(time.Second))
	p := NewProxy(l, "10.255.255.1:9", // never dialed: the blackhole dialer ignores it
		WithBackendDialContext(netfault.Blackhole()),
		WithDialTimeout(100*time.Millisecond),
		WithBackendRetry(0, 5*time.Millisecond, 20*time.Millisecond),
		WithBreaker(2, time.Second),
	)
	go func() { _ = p.Serve() }()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &Dialer{HandshakeTimeout: 2 * time.Second}
			conn, err := d.Dial("tcp", l.Addr().String())
			if err != nil {
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			_, _ = conn.Read(make([]byte, 1))
			_ = conn.Close()
		}()
	}
	wg.Wait()

	if st := p.Stats(); st.BackendFailures == 0 {
		t.Error("black-holed dials never timed out")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := p.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Shutdown took %v against a black-holed backend", elapsed)
	}
}
