package puzzlenet

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// ChallengePolicy decides per connection whether to issue a challenge.
type ChallengePolicy interface {
	// Challenge reports whether the next connection must solve a puzzle,
	// given the number of connections currently awaiting verification.
	Challenge(pending int) bool
}

// PolicyAlways challenges every connection.
type PolicyAlways struct{}

// Challenge implements ChallengePolicy.
func (PolicyAlways) Challenge(int) bool { return true }

// PolicyPending mirrors the kernel's opportunistic controller: challenge
// once the number of connections awaiting verification reaches Threshold.
type PolicyPending struct {
	Threshold int
}

// Challenge implements ChallengePolicy.
func (p PolicyPending) Challenge(pending int) bool { return pending >= p.Threshold }

// ListenerStats exposes counters for monitoring.
type ListenerStats struct {
	// Accepted counts raw TCP accepts, before admission control.
	Accepted uint64
	// Challenged counts connections that were issued a puzzle.
	Challenged uint64
	// Verified counts connections whose solution verified.
	Verified uint64
	// Rejected counts bad or expired solutions and protocol violations.
	Rejected uint64
	// Shed counts connections refused with REJECT(busy) because the
	// pending-verification limit was reached.
	Shed uint64
	// Throttled counts connections refused with REJECT(throttled) by
	// per-source admission control.
	Throttled uint64
	// Errors counts I/O and internal failures on the preamble path.
	Errors uint64
	// Inflight is the number of preambles currently in progress.
	Inflight int64
}

// Listener gates accepted connections behind client puzzles.
type Listener struct {
	inner      net.Listener
	issuer     *puzzle.Issuer
	policy     ChallengePolicy
	timeout    time.Duration
	maxPending int        // 0 = unlimited
	admission  *admission // nil = no per-source limit

	ready  chan net.Conn
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	pending  atomic.Int64 // challenged connections awaiting verification
	inflight atomic.Int64 // all preambles in progress

	conns struct {
		mu sync.Mutex
		m  map[net.Conn]struct{}
	}

	accepted, challenged, verified, rejected, shed, throttled, errs atomic.Uint64
}

// ListenerOption customises a Listener.
type ListenerOption func(*Listener)

// WithPolicy sets the challenge policy (default PolicyAlways).
func WithPolicy(p ChallengePolicy) ListenerOption {
	return func(l *Listener) { l.policy = p }
}

// WithHandshakeTimeout bounds the challenge/solution exchange (default 30s,
// the challenge replay window). Every preamble read and write runs under
// this deadline, so no unauthenticated peer can pin a goroutine longer.
func WithHandshakeTimeout(d time.Duration) ListenerOption {
	return func(l *Listener) { l.timeout = d }
}

// WithMaxPending bounds the number of concurrently in-flight preambles.
// Connections arriving over the limit are refused immediately with
// REJECT(busy) — a fast, bounded-cost shed instead of an unbounded
// goroutine per attacker. Zero (the default) means unlimited.
func WithMaxPending(n int) ListenerOption {
	return func(l *Listener) { l.maxPending = n }
}

// WithSourceRate enables per-source token-bucket admission: each remote
// host may open at most rate connections per second with the given burst.
// Over-rate connections are refused with REJECT(throttled). rate <= 0
// disables the limiter (the default).
func WithSourceRate(rate float64, burst int) ListenerOption {
	return func(l *Listener) {
		if rate > 0 {
			l.admission = newAdmission(rate, burst)
		}
	}
}

// NewListener wraps an accepted-connection source with puzzle gating. The
// issuer supplies difficulty and verification; retune it at runtime via
// puzzle.Issuer.SetParams.
func NewListener(inner net.Listener, issuer *puzzle.Issuer, opts ...ListenerOption) *Listener {
	l := &Listener{
		inner:   inner,
		issuer:  issuer,
		policy:  PolicyAlways{},
		timeout: 30 * time.Second,
		ready:   make(chan net.Conn),
		closed:  make(chan struct{}),
	}
	l.conns.m = make(map[net.Conn]struct{})
	for _, opt := range opts {
		opt(l)
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l
}

// Listen is a convenience that listens on a TCP address and wraps it.
func Listen(addr string, issuer *puzzle.Issuer, opts ...ListenerOption) (*Listener, error) {
	inner, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("puzzlenet: %w", err)
	}
	return NewListener(inner, issuer, opts...), nil
}

// Accept returns the next verified connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.ready:
		return conn, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close stops accepting and waits for in-flight handshakes to finish, for
// as long as they take (each is individually bounded by the handshake
// timeout). Use Shutdown to bound the total drain.
func (l *Listener) Close() error {
	err := l.stop()
	l.wg.Wait()
	return err
}

// Shutdown stops accepting new connections, drains in-flight preambles,
// and returns once all listener goroutines have exited. If ctx expires
// first, remaining preamble connections are force-closed (their goroutines
// then exit promptly) and ctx.Err() is returned. Either way, no listener
// goroutine survives the call.
func (l *Listener) Shutdown(ctx context.Context) error {
	err := l.stop()
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		l.forceCloseConns()
		<-done
		return ctx.Err()
	}
}

// stop closes the inner listener and signals shutdown exactly once.
func (l *Listener) stop() error {
	var err error
	l.once.Do(func() {
		err = l.inner.Close()
		close(l.closed)
	})
	return err
}

// forceCloseConns closes every connection still in the preamble.
func (l *Listener) forceCloseConns() {
	l.conns.mu.Lock()
	defer l.conns.mu.Unlock()
	for conn := range l.conns.m {
		_ = conn.Close()
	}
}

func (l *Listener) track(conn net.Conn) {
	l.conns.mu.Lock()
	l.conns.m[conn] = struct{}{}
	l.conns.mu.Unlock()
}

func (l *Listener) untrack(conn net.Conn) {
	l.conns.mu.Lock()
	delete(l.conns.m, conn)
	l.conns.mu.Unlock()
}

// Addr returns the underlying listener address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Stats returns a snapshot of the listener counters.
func (l *Listener) Stats() ListenerStats {
	return ListenerStats{
		Accepted:   l.accepted.Load(),
		Challenged: l.challenged.Load(),
		Verified:   l.verified.Load(),
		Rejected:   l.rejected.Load(),
		Shed:       l.shed.Load(),
		Throttled:  l.throttled.Load(),
		Errors:     l.errs.Load(),
		Inflight:   l.inflight.Load(),
	}
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.inner.Accept()
		if err != nil {
			select {
			case <-l.closed:
			default:
				l.errs.Add(1)
				// Transient accept errors: retry until Close.
				select {
				case <-l.closed:
					return
				case <-time.After(10 * time.Millisecond):
					continue
				}
			}
			return
		}
		l.accepted.Add(1)
		if l.admission != nil && !l.admission.allow(conn.RemoteAddr(), time.Now()) {
			l.throttled.Add(1)
			l.wg.Add(1)
			go l.refuse(conn, RejectThrottled)
			continue
		}
		if l.maxPending > 0 && l.inflight.Load() >= int64(l.maxPending) {
			l.shed.Add(1)
			l.wg.Add(1)
			go l.refuse(conn, RejectBusy)
			continue
		}
		l.inflight.Add(1)
		l.wg.Add(1)
		go l.handshake(conn)
	}
}

// refuse sheds a connection with a fast REJECT. The write runs under a
// short deadline off the accept loop so a peer that refuses to read cannot
// stall accepts or pin the goroutine.
func (l *Listener) refuse(conn net.Conn, reason RejectReason) {
	defer l.wg.Done()
	l.track(conn)
	defer l.untrack(conn)
	_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_ = writeReject(conn, reason)
	_ = conn.Close()
}

// handshake runs the preamble on one connection and delivers it to Accept
// on success.
func (l *Listener) handshake(conn net.Conn) {
	defer l.wg.Done()
	defer l.inflight.Add(-1)
	l.track(conn)
	deliver, err := l.gate(conn)
	if err != nil || !deliver {
		l.untrack(conn)
		_ = conn.Close()
		return
	}
	select {
	case l.ready <- conn:
		l.untrack(conn)
	case <-l.closed:
		l.untrack(conn)
		_ = conn.Close()
	}
}

// gate performs the WELCOME/CHALLENGE exchange under the handshake
// deadline. It reports whether the connection should be delivered to the
// application.
func (l *Listener) gate(conn net.Conn) (bool, error) {
	if err := conn.SetDeadline(time.Now().Add(l.timeout)); err != nil {
		l.errs.Add(1)
		return false, err
	}
	if !l.policy.Challenge(int(l.pending.Load())) {
		if err := writeFrame(conn, frameWelcome, nil); err != nil {
			l.errs.Add(1)
			return false, err
		}
		if err := conn.SetDeadline(time.Time{}); err != nil {
			l.errs.Add(1)
			return false, err
		}
		return true, nil
	}
	l.pending.Add(1)
	defer l.pending.Add(-1)
	l.challenged.Add(1)

	nonce, err := l.nextNonce()
	if err != nil {
		l.errs.Add(1)
		return false, err
	}
	flow := flowFor(conn, nonce)
	ch := l.issuer.Issue(flow)
	chOpt, err := tcpopt.EncodeChallenge(ch, true)
	if err != nil {
		l.errs.Add(1)
		return false, err
	}
	// The nonce travels with the challenge so the client can echo the
	// binding; frame payload = nonce(4) || option bytes.
	payload := make([]byte, 0, 4+2+len(chOpt.Data))
	payload = append(payload,
		byte(nonce>>24), byte(nonce>>16), byte(nonce>>8), byte(nonce))
	payload = append(payload, chOpt.Kind, byte(2+len(chOpt.Data)))
	payload = append(payload, chOpt.Data...)
	if err := writeFrame(conn, frameChallenge, payload); err != nil {
		l.errs.Add(1)
		return false, err
	}

	frameType, body, err := readFrame(conn)
	if err != nil {
		l.errs.Add(1)
		return false, err
	}
	if frameType != frameSolution || len(body) < 2 {
		l.rejected.Add(1)
		_ = writeReject(conn, RejectGeneric)
		return false, ErrProtocol
	}
	solOpt := tcpopt.Option{Kind: body[0], Data: body[2:]}
	blk, err := tcpopt.ParseSolution(solOpt, l.issuer.Params())
	if err != nil {
		l.rejected.Add(1)
		_ = writeReject(conn, RejectBadSolution)
		return false, err
	}
	if err := l.issuer.Verify(flow, blk.Solution); err != nil {
		l.rejected.Add(1)
		reason := RejectBadSolution
		if errors.Is(err, puzzle.ErrExpired) {
			reason = RejectExpired
		}
		_ = writeReject(conn, reason)
		return false, err
	}
	l.verified.Add(1)
	if err := writeFrame(conn, frameAccept, nil); err != nil {
		l.errs.Add(1)
		return false, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		l.errs.Add(1)
		return false, err
	}
	return true, nil
}

// nextNonce draws the per-connection nonce from crypto/rand: it stands in
// for the SYN's initial sequence number in the flow binding, so a
// predictable stream would weaken challenge binding and replay resistance.
func (l *Listener) nextNonce() (uint32, error) {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("puzzlenet: nonce: %w", err)
	}
	return binary.BigEndian.Uint32(b[:]), nil
}
