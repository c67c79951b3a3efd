package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/loadgen"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/puzzlenet"
)

// The proxy workload is bounded by the ephemeral port range, not by time
// alone: every connection leaves a client-side socket in TIME_WAIT, and a
// host without TIME_WAIT reuse can hand out each port of the range only
// once per run. proxyMaxOps exchanges, the warm-up of each of the
// setupReps set-ups and ten seconds of the attacker come to about 25,500
// connections, inside the default range of 28,232 ports.
const (
	proxyMaxOps     = 20000
	proxyWarmup     = 500
	proxyPayload    = 16
	proxyAttackRate = 300 // attacker connections per second, open loop
)

// portRange reads the kernel's ephemeral port range.
func portRange() (lo, hi int, err error) {
	data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 0, 0, err
	}
	f := strings.Fields(string(data))
	if len(f) != 2 {
		return 0, 0, fmt.Errorf("ip_local_port_range: unexpected content %q", data)
	}
	if lo, err = strconv.Atoi(f[0]); err != nil {
		return 0, 0, err
	}
	hi, err = strconv.Atoi(f[1])
	return lo, hi, err
}

// proxyLoad is an instance of the real-socket workload: an echo backend,
// a puzzle listener and a proxy self-hosted on TCP loopback in this
// process, one honest closed-loop client (the timed operations) and one
// attacker that opens connections on a fixed schedule and abandons each
// after reading the challenge.
type proxyLoad struct {
	addr     string
	listener *puzzlenet.Listener
	proxy    *puzzlenet.Proxy
	shutdown func(context.Context) error
	dialer   *puzzlenet.Dialer
	payload  []byte
	buf      []byte

	stopAttack context.CancelFunc
	attackDone sync.WaitGroup
	attack     struct {
		mu       sync.Mutex
		conns    int
		lateness []float64 // seconds: actual minus due send time
	}

	completed   int
	preamble    []float64 // seconds: dial start → ACCEPT, every timed exchange
	solveHashes uint64
}

func newProxyLoad(env) (*proxyLoad, error) {
	if lo, hi, err := portRange(); err != nil {
		return nil, err
	} else if have, need := hi-lo+1, proxyMaxOps*5/4; have < need {
		return nil, fmt.Errorf("ephemeral port range %d-%d has %d ports; %d exchanges need at least %d "+
			"(widen net.ipv4.ip_local_port_range)", lo, hi, have, proxyMaxOps, need)
	}
	// The sample buffers are allocated in full here, so that the retained
	// heap a run reports does not depend on how far append grew them.
	p := &proxyLoad{
		payload:  make([]byte, proxyPayload),
		buf:      make([]byte, proxyPayload),
		preamble: make([]float64, 0, proxyMaxOps),
	}
	p.attack.lateness = make([]float64, 0, 60*proxyAttackRate)
	for i := range p.payload {
		p.payload[i] = byte('a' + i%26)
	}
	// Lowest difficulty, so protocol and kernel cost, not the client's
	// SHA-256 search, dominate.
	cfg := loadgen.Config{Params: puzzle.Params{K: 1, M: 4, L: 32}}
	var err error
	p.addr, p.listener, p.proxy, p.shutdown, err = loadgen.SelfHost(cfg)
	if err != nil {
		return nil, err
	}
	p.dialer = &puzzlenet.Dialer{
		HandshakeTimeout: 5 * time.Second,
		OnSolve:          func(_ puzzle.Params, hashes uint64) { p.solveHashes += hashes },
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.stopAttack = cancel
	p.attackDone.Add(1)
	go p.attacker(ctx)
	for i := 0; i < proxyWarmup; i++ {
		if err := p.op(i, nil); err != nil {
			_ = p.close()
			return nil, fmt.Errorf("warm-up exchange %d: %w", i, err)
		}
	}
	p.completed, p.preamble, p.solveHashes = 0, p.preamble[:0], 0
	return p, nil
}

// attacker is the open loop: connection k is due at start + k/rate
// whatever the proxy does, and how late each was actually opened is
// recorded — lateness means the host, not the proxy, was saturated.
func (p *proxyLoad) attacker(ctx context.Context) {
	defer p.attackDone.Done()
	interval := time.Second / proxyAttackRate
	start := time.Now()
	var d net.Dialer
	challenge := make([]byte, 16)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return
		}
		late := time.Since(due).Seconds()
		conn, err := d.DialContext(ctx, "tcp", p.addr)
		if err != nil {
			continue
		}
		_ = conn.SetDeadline(time.Now().Add(time.Second))
		_, _ = conn.Read(challenge) // the challenge frame, then abandon
		_ = conn.Close()
		p.attack.mu.Lock()
		p.attack.conns++
		p.attack.lateness = append(p.attack.lateness, late)
		p.attack.mu.Unlock()
	}
}

// op is one honest exchange: dial through the puzzle preamble, echo the
// payload through the splice, close.
func (p *proxyLoad) op(i int, tr *tracer) error {
	ex := tr.start("exchange", i, 0)
	defer tr.end(ex)

	s := tr.start("puzzlenet.dial", i, ex)
	t := time.Now()
	conn, err := p.dialer.DialContext(context.Background(), "tcp", p.addr)
	preamble := time.Since(t)
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.start("puzzlenet.echo", i, ex)
	_, werr := conn.Write(p.payload)
	_, rerr := io.ReadFull(conn, p.buf)
	tr.end(s)

	s = tr.start("puzzlenet.close", i, ex)
	cerr := conn.Close()
	tr.end(s)

	for _, err := range []error{werr, rerr, cerr} {
		if err != nil {
			return err
		}
	}
	if !bytes.Equal(p.buf, p.payload) {
		return fmt.Errorf("echo differs: sent %q, got %q", p.payload, p.buf)
	}
	p.completed++
	p.preamble = append(p.preamble, preamble.Seconds())
	return nil
}

// check: every completed exchange was verified by the listener and
// spliced by the proxy (the counters also include the warm-up).
func (p *proxyLoad) check() error {
	if v := p.listener.Stats().Verified; v < uint64(p.completed) {
		return fmt.Errorf("listener verified %d < %d completed exchanges", v, p.completed)
	}
	if s := p.proxy.Stats().Spliced; s < uint64(p.completed) {
		return fmt.Errorf("proxy spliced %d < %d completed exchanges", s, p.completed)
	}
	return nil
}

// digest: the real-socket tier has no deterministic output to digest.
func (p *proxyLoad) digest() string { return "" }

func (p *proxyLoad) close() error {
	p.stopAttack()
	p.attackDone.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return p.shutdown(ctx)
}

func (p *proxyLoad) layers(set func(string, float64)) error {
	if p.completed == 0 {
		return fmt.Errorf("no completed exchange")
	}
	pre := sortedCopy(p.preamble)
	set("puzzlenet.preamble_p50_ms", quantile(pre, 0.5)*1e3)
	// p99 is the highest percentile that proxyMaxOps samples support with
	// a margin (200 beyond it; p99.9 would have 20).
	set("puzzlenet.preamble_p99_ms", tail{"p99", 100}.of(pre)*1e3)
	set("puzzlenet.solve_hashes_mean", float64(p.solveHashes)/float64(p.completed))

	ls, ps := p.listener.Stats(), p.proxy.Stats()
	set("puzzlenet.challenged", float64(ls.Challenged))
	set("puzzlenet.verified", float64(ls.Verified))
	set("puzzlenet.rejected", float64(ls.Rejected))
	set("puzzlenet.shed", float64(ls.Shed))
	set("puzzlenet.listener_errors", float64(ls.Errors))
	set("puzzlenet.spliced", float64(ps.Spliced))
	set("puzzlenet.backend_dials", float64(ps.BackendDials))

	p.attack.mu.Lock()
	defer p.attack.mu.Unlock()
	set("loadgen.attack_conns", float64(p.attack.conns))
	set("loadgen.attacker_lateness_p99_ms", tail{"p99", 100}.of(sortedCopy(p.attack.lateness))*1e3)
	return nil
}

func proxyWorkload(name string) workload {
	return workload{
		name:   name,
		maxOps: proxyMaxOps,
		probes: []probeGroup{probePuzzle},
		setup:  func(e env) (instance, error) { return newProxyLoad(e) },
	}
}
