package puzzlenet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DegradedMode selects the proxy's behaviour while the backend circuit
// breaker is open.
type DegradedMode int

const (
	// DegradeShed fails verified connections fast while the breaker is
	// open: no dial is attempted, the client connection closes immediately.
	// The breaker's own half-open probes are the only backend traffic.
	DegradeShed DegradedMode = iota
	// DegradePassThrough keeps attempting backend dials while the breaker
	// is open — every connection doubles as a probe, trading client-side
	// latency for the fastest possible recovery detection.
	DegradePassThrough
)

// ProxyStats exposes counters for monitoring.
type ProxyStats struct {
	// Spliced counts connections spliced to the backend.
	Spliced uint64
	// ActiveSplices is the number of splices currently running.
	ActiveSplices int64
	// SpliceShed counts verified connections closed because the
	// splice-concurrency limit was reached.
	SpliceShed uint64
	// BackendDials counts dial attempts (including retries and probes).
	BackendDials uint64
	// BackendRetries counts dial attempts beyond the first for one splice.
	BackendRetries uint64
	// BackendFailures counts failed dial attempts.
	BackendFailures uint64
	// BackendShed counts connections dropped without a dial because the
	// breaker was open in DegradeShed mode.
	BackendShed uint64
	// BreakerState is the circuit breaker's current state.
	BreakerState BreakerState
	// BreakerOpens counts transitions into the open state.
	BreakerOpens uint64
}

// Proxy is the front-end deployment of §7: it terminates puzzle handshakes
// and forwards only verified connections to a backend, so the backend never
// spends cycles on puzzle generation or verification.
type Proxy struct {
	listener *Listener
	backend  string
	dialCtx  func(ctx context.Context, addr string) (net.Conn, error)

	dialTimeout time.Duration
	retries     int
	backoffBase time.Duration
	backoffCap  time.Duration
	breaker     *breaker
	degraded    DegradedMode
	maxSplices  int
	idleTimeout time.Duration

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
	done   chan struct{}
	active map[net.Conn]net.Conn // client -> backend, for forced drain

	splices                                           atomic.Int64
	spliced, spliceShed, dials, retried, failed, shed atomic.Uint64
}

// ProxyOption customises a Proxy.
type ProxyOption func(*Proxy)

// WithBackendDialContext overrides how backend connections are opened with
// a context-aware dialer. The context carries the per-attempt dial timeout
// and is cancelled on proxy shutdown, so a black-holed backend cannot pin
// goroutines.
func WithBackendDialContext(dial func(ctx context.Context, addr string) (net.Conn, error)) ProxyOption {
	return func(p *Proxy) { p.dialCtx = dial }
}

// WithDialTimeout bounds each backend dial attempt (default 10s).
func WithDialTimeout(d time.Duration) ProxyOption {
	return func(p *Proxy) { p.dialTimeout = d }
}

// WithBackendRetry configures dial retries per splice: up to retries
// additional attempts after the first, spaced by capped exponential
// backoff with jitter starting at base (default 2 retries, 50ms base,
// 1s cap).
func WithBackendRetry(retries int, base, cap time.Duration) ProxyOption {
	return func(p *Proxy) {
		p.retries = retries
		if base > 0 {
			p.backoffBase = base
		}
		if cap > 0 {
			p.backoffCap = cap
		}
	}
}

// WithBreaker configures the backend circuit breaker: threshold
// consecutive dial failures open it for cooldown before a half-open probe
// (default threshold 5, cooldown 2s). threshold <= 0 disables the breaker.
func WithBreaker(threshold int, cooldown time.Duration) ProxyOption {
	return func(p *Proxy) { p.breaker = newBreaker(threshold, cooldown) }
}

// WithDegradedMode selects shed (default) or pass-through behaviour while
// the breaker is open.
func WithDegradedMode(m DegradedMode) ProxyOption {
	return func(p *Proxy) { p.degraded = m }
}

// WithMaxSplices bounds concurrent client↔backend splices; verified
// connections over the limit are closed immediately and counted as
// SpliceShed. Zero (the default) means unlimited.
func WithMaxSplices(n int) ProxyOption {
	return func(p *Proxy) { p.maxSplices = n }
}

// WithIdleTimeout bounds how long a splice direction may sit with no data
// before the splice is torn down (default 5m). Zero disables the idle
// limit; every read and write then blocks without bound, as a raw io.Copy
// would.
func WithIdleTimeout(d time.Duration) ProxyOption {
	return func(p *Proxy) { p.idleTimeout = d }
}

// NewProxy builds a proxy in front of backend using a puzzle-gated
// listener.
func NewProxy(listener *Listener, backend string, opts ...ProxyOption) *Proxy {
	p := &Proxy{
		listener:    listener,
		backend:     backend,
		dialTimeout: 10 * time.Second,
		retries:     2,
		backoffBase: 50 * time.Millisecond,
		backoffCap:  time.Second,
		breaker:     newBreaker(5, 2*time.Second),
		idleTimeout: 5 * time.Minute,
		done:        make(chan struct{}),
		active:      make(map[net.Conn]net.Conn),
	}
	p.dialCtx = func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Serve accepts verified connections and splices them to the backend until
// the listener closes.
func (p *Proxy) Serve() error {
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("puzzlenet: proxy accept: %w", err)
		}
		if p.maxSplices > 0 && p.splices.Load() >= int64(p.maxSplices) {
			p.spliceShed.Add(1)
			_ = conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		p.wg.Add(1)
		p.splices.Add(1)
		p.mu.Unlock()
		go p.splice(conn)
	}
}

// Close shuts the listener and waits for in-flight preambles and splices,
// for as long as they take. Use Shutdown to bound the drain.
func (p *Proxy) Close() error {
	err := p.beginClose()
	_ = p.listener.Close()
	p.wg.Wait()
	return err
}

// Shutdown stops accepting, drains the listener's preambles and the
// in-flight splices, and returns once every proxy goroutine has exited.
// If ctx expires first, remaining connections (both halves of every
// splice) are force-closed and ctx.Err() is returned. Either way, no
// proxy goroutine survives the call.
func (p *Proxy) Shutdown(ctx context.Context) error {
	closeErr := p.beginClose()
	lerr := p.listener.Shutdown(ctx)
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if lerr != nil {
			return lerr
		}
		return closeErr
	case <-ctx.Done():
		p.forceCloseSplices()
		<-done
		return ctx.Err()
	}
}

// beginClose marks the proxy closed, interrupts backoff sleeps and pending
// dials, and closes the listener. Idempotent.
func (p *Proxy) beginClose() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	return p.listener.stop()
}

func (p *Proxy) forceCloseSplices() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for client, backend := range p.active {
		_ = client.Close()
		if backend != nil {
			_ = backend.Close()
		}
	}
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() ProxyStats {
	state, opens := p.breaker.snapshot()
	return ProxyStats{
		Spliced:         p.spliced.Load(),
		ActiveSplices:   p.splices.Load(),
		SpliceShed:      p.spliceShed.Load(),
		BackendDials:    p.dials.Load(),
		BackendRetries:  p.retried.Load(),
		BackendFailures: p.failed.Load(),
		BackendShed:     p.shed.Load(),
		BreakerState:    state,
		BreakerOpens:    opens,
	}
}

func (p *Proxy) splice(client net.Conn) {
	defer p.wg.Done()
	defer p.splices.Add(-1)
	defer client.Close()

	p.trackSplice(client, nil)
	defer p.untrackSplice(client)

	backend, err := p.dialBackend()
	if err != nil {
		return
	}
	p.trackSplice(client, backend)
	defer backend.Close()
	p.spliced.Add(1)

	done := make(chan struct{}, 2)
	go func() {
		p.spliceCopy(backend, client)
		done <- struct{}{}
	}()
	go func() {
		p.spliceCopy(client, backend)
		done <- struct{}{}
	}()
	<-done
	<-done
}

// spliceBufs pools splice copy buffers; the frame path and every splice
// direction reuse them instead of allocating 32 KiB per goroutine.
var spliceBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// spliceCopy copies src to dst under the idle deadline, then propagates
// EOF via half-close where supported.
func (p *Proxy) spliceCopy(dst, src net.Conn) {
	bufp := spliceBufs.Get().(*[]byte)
	buf := *bufp
	defer spliceBufs.Put(bufp)
	for {
		if p.idleTimeout > 0 {
			_ = src.SetReadDeadline(time.Now().Add(p.idleTimeout))
		}
		n, rerr := src.Read(buf)
		if n > 0 {
			if p.idleTimeout > 0 {
				_ = dst.SetWriteDeadline(time.Now().Add(p.idleTimeout))
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if rerr != nil {
			break
		}
	}
	// Half-close semantics: propagate EOF where supported.
	if tcp, ok := dst.(*net.TCPConn); ok {
		_ = tcp.CloseWrite()
	}
}

// dialBackend opens a backend connection behind the circuit breaker with
// capped exponential backoff + jitter between attempts.
func (p *Proxy) dialBackend() (net.Conn, error) {
	backoff := p.backoffBase
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !p.breaker.allow(time.Now()) && p.degraded == DegradeShed {
			p.shed.Add(1)
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last dial: %v)", ErrBackendDown, lastErr)
			}
			return nil, ErrBackendDown
		}
		if attempt > 0 {
			p.retried.Add(1)
		}
		p.dials.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), p.dialTimeout)
		go func() {
			// Shutdown interrupts a pending dial; otherwise this exits as
			// soon as the dial's own cancel runs.
			select {
			case <-p.done:
				cancel()
			case <-ctx.Done():
			}
		}()
		conn, err := p.dialCtx(ctx, p.backend)
		cancel()
		if err == nil {
			p.breaker.success()
			return conn, nil
		}
		lastErr = err
		p.failed.Add(1)
		p.breaker.failure(time.Now())
		if attempt >= p.retries {
			return nil, err
		}
		// Full jitter on the current backoff step, capped.
		sleep := time.Duration(rand.Int64N(int64(backoff) + 1))
		select {
		case <-time.After(sleep):
		case <-p.done:
			return nil, net.ErrClosed
		}
		if backoff < p.backoffCap {
			backoff *= 2
			if backoff > p.backoffCap {
				backoff = p.backoffCap
			}
		}
	}
}

func (p *Proxy) trackSplice(client, backend net.Conn) {
	p.mu.Lock()
	p.active[client] = backend
	p.mu.Unlock()
}

func (p *Proxy) untrackSplice(client net.Conn) {
	p.mu.Lock()
	delete(p.active, client)
	p.mu.Unlock()
}
