package puzzlenet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// testParams is easy enough for real solving in tests.
var testParams = puzzle.Params{K: 2, M: 6, L: 32}

func newTestListener(t *testing.T, opts ...ListenerOption) (*Listener, *puzzle.Issuer) {
	t.Helper()
	issuer, err := puzzle.NewIssuer(puzzle.WithParams(testParams))
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	l, err := Listen("127.0.0.1:0", issuer, opts...)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, issuer
}

// echoAccepted echoes one message per accepted connection.
func echoAccepted(t *testing.T, l *Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
}

func TestSolvingDialerGetsService(t *testing.T) {
	l, _ := newTestListener(t)
	echoAccepted(t, l)

	var solvedHashes uint64
	d := &Dialer{OnSolve: func(_ puzzle.Params, hashes uint64) { solvedHashes = hashes }}
	conn, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	msg := []byte("hello puzzles")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("echo = %q, want %q", buf, msg)
	}
	if solvedHashes == 0 {
		t.Error("dialer reported zero solve hashes")
	}
	stats := l.Stats()
	if stats.Verified != 1 || stats.Challenged != 1 {
		t.Errorf("stats = %+v, want 1 challenged/verified", stats)
	}
}

func TestNonSolvingClientRejected(t *testing.T) {
	l, _ := newTestListener(t, WithHandshakeTimeout(2*time.Second))
	echoAccepted(t, l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	// Ignore the challenge and send raw application bytes: the listener
	// must reject (garbage is not a SOLUTION frame) and close. The frame
	// type decides before any hash, so the random secret cannot make it
	// accept: false-accept probability 0.
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Drain the challenge frame, then expect REJECT or close.
	buf := make([]byte, 1024)
	deadline := time.Now().Add(5 * time.Second)
	closed := false
	for time.Now().Before(deadline) {
		if _, err := conn.Read(buf); err != nil {
			closed = true
			break
		}
	}
	if !closed {
		t.Fatal("connection not closed after bogus solution")
	}
	stats := l.Stats()
	if stats.Rejected == 0 && stats.Errors == 0 {
		t.Errorf("neither Rejected nor Errors incremented: %+v", stats)
	}
	if stats.Verified != 0 {
		t.Errorf("Verified = %d for a non-solving client", stats.Verified)
	}
}

func TestBogusSolutionRejected(t *testing.T) {
	l, _ := newTestListener(t, WithHandshakeTimeout(2*time.Second))
	echoAccepted(t, l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	frameType, _, err := readFrame(conn)
	if err != nil || frameType != frameChallenge {
		t.Fatalf("greeting = 0x%02x, %v", frameType, err)
	}
	// Fabricate a structurally valid but wrong solution. Its timestamp is
	// zero, so Verify fails it as expired before hashing anything: the
	// random secret cannot make it pass, false-accept probability 0.
	garbage := make([]byte, 2+3+4+int(testParams.K)*testParams.SolutionBytes())
	garbage[0] = 0xfd
	garbage[1] = byte(len(garbage))
	if err := writeFrame(conn, frameSolution, garbage); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	ft, _, err := readFrame(conn)
	if err == nil && ft == frameAccept {
		t.Fatal("server accepted a bogus solution")
	}
	if l.Stats().Verified != 0 {
		t.Error("Verified counter incremented for bogus solution")
	}
}

func TestPolicyNeverWelcomesImmediately(t *testing.T) {
	l, _ := newTestListener(t, WithPolicy(PolicyNever{}))
	echoAccepted(t, l)
	d := &Dialer{}
	conn, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if l.Stats().Challenged != 0 {
		t.Errorf("Challenged = %d, want 0", l.Stats().Challenged)
	}
}

func TestPolicyPendingOpportunistic(t *testing.T) {
	p := PolicyPending{Threshold: 3}
	if p.Challenge(0) || p.Challenge(2) {
		t.Error("challenged below threshold")
	}
	if !p.Challenge(3) || !p.Challenge(10) {
		t.Error("not challenged at/above threshold")
	}
}

func TestConcurrentDialers(t *testing.T) {
	l, _ := newTestListener(t)
	echoAccepted(t, l)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &Dialer{}
			conn, err := d.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("x")); err != nil {
				errs <- err
				return
			}
			buf := make([]byte, 1)
			if _, err := io.ReadFull(conn, buf); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("dialer: %v", err)
	}
	if got := l.Stats().Verified; got != n {
		t.Errorf("Verified = %d, want %d", got, n)
	}
}

func TestDialerContextCancellation(t *testing.T) {
	// A server that issues an unsolvable challenge keeps the dialer
	// solving; cancellation must abort.
	issuer, err := puzzle.NewIssuer(puzzle.WithParams(puzzle.Params{K: 1, M: 60, L: 64}))
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	l, err := Listen("127.0.0.1:0", issuer)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	d := &Dialer{}
	if _, err := d.DialContext(ctx, "tcp", l.Addr().String()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DialContext error = %v, want DeadlineExceeded", err)
	}
}

func TestProxyEndToEnd(t *testing.T) {
	// Backend echo server (no puzzles).
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("backend listen: %v", err)
	}
	t.Cleanup(func() { _ = backend.Close() })
	go func() {
		for {
			conn, err := backend.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()

	l, _ := newTestListener(t)
	proxy := NewProxy(l, backend.Addr().String())
	go func() { _ = proxy.Serve() }()
	t.Cleanup(func() { _ = proxy.Close() })

	d := &Dialer{}
	conn, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial through proxy: %v", err)
	}
	defer conn.Close()
	msg := []byte("via the verification tier")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("echo = %q, want %q", buf, msg)
	}
}

func TestRuntimeRetuning(t *testing.T) {
	l, issuer := newTestListener(t)
	echoAccepted(t, l)
	if err := issuer.SetParams(puzzle.Params{K: 1, M: 4, L: 32}); err != nil {
		t.Fatalf("SetParams: %v", err)
	}
	var gotParams puzzle.Params
	d := &Dialer{OnSolve: func(p puzzle.Params, _ uint64) { gotParams = p }}
	conn, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if gotParams.M != 4 || gotParams.K != 1 {
		t.Errorf("challenge params = %v, want retuned (1,4)", gotParams)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := writeFrame(&buf, frameChallenge, payload); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	ft, got, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if ft != frameChallenge || !bytes.Equal(got, payload) {
		t.Errorf("frame = 0x%02x %v", ft, got)
	}
	// Oversize payloads rejected on both paths.
	if err := writeFrame(&buf, frameWelcome, make([]byte, maxFrameLen+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("writeFrame oversize error = %v", err)
	}
	var evil bytes.Buffer
	evil.Write([]byte{frameWelcome, 0xff, 0xff})
	if _, _, err := readFrame(&evil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("readFrame oversize error = %v", err)
	}
}

func TestFlowBinding(t *testing.T) {
	// Distinct nonces must give distinct flows on the same conn pair.
	a := puzzle.FlowID{ISN: 1}
	b := puzzle.FlowID{ISN: 2}
	if a == b {
		t.Fatal("flows with distinct nonces equal")
	}
	// IPv6 folding is deterministic.
	addr := &net.TCPAddr{IP: net.ParseIP("2001:db8::1"), Port: 443}
	ip1, p1 := addrParts(addr)
	ip2, p2 := addrParts(addr)
	if ip1 != ip2 || p1 != p2 {
		t.Error("IPv6 folding not deterministic")
	}
	if p1 != 443 {
		t.Errorf("port = %d, want 443", p1)
	}
}
