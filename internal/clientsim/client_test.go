package clientsim

import (
	"bytes"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/cpumodel"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/serversim"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

type world struct {
	eng    *netsim.Engine
	net    *netsim.Network
	server *serversim.Server
}

func newWorld(t *testing.T, srvCfg serversim.Config) *world {
	t.Helper()
	eng := netsim.NewEngine()
	network := netsim.NewNetwork(eng)
	srvCfg.Addr = [4]byte{10, 0, 0, 1}
	srv, err := serversim.New(eng, network, netsim.DefaultServerLink(), srvCfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	return &world{eng: eng, net: network, server: srv}
}

func (w *world) client(t *testing.T, cfg Config) *Client {
	t.Helper()
	if cfg.Addr == ([4]byte{}) {
		cfg.Addr = [4]byte{10, 0, 1, 1}
	}
	cfg.ServerAddr = w.server.Addr()
	c, err := New(w.eng, w.net, netsim.DefaultHostLink(), cfg)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	return c
}

func TestClientCompletesRequestUnprotected(t *testing.T) {
	w := newWorld(t, serversim.Config{Defense: sweep.DefenseNone})
	c := w.client(t, Config{RequestBytes: 20000, Seed: 3})
	c.Connect()
	w.eng.Run(10 * time.Second)
	m := c.Metrics()
	if m.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (failed=%d)", m.Completed, m.Failed)
	}
	if len(m.ConnTimes) != 1 {
		t.Fatalf("ConnTimes count = %d", len(m.ConnTimes))
	}
	// LAN handshake: one RTT ≈ 8 ms on default links.
	if ct := m.ConnTimes[0]; ct <= 0 || ct > 0.1 {
		t.Errorf("connection time = %v s, want ≈ 0.008", ct)
	}
	if got := m.BytesIn.Sum(); got < 20000 {
		t.Errorf("BytesIn = %v, want ≥ 20000", got)
	}
}

func TestClientPoissonGeneratorRate(t *testing.T) {
	w := newWorld(t, serversim.Config{Defense: sweep.DefenseNone})
	c := w.client(t, Config{Rate: 50, RequestBytes: 1000, Seed: 5, StopAt: 20 * time.Second})
	w.eng.Run(30 * time.Second)
	started := float64(c.Metrics().Started)
	// 50 req/s for 20 s ⇒ ≈ 1000 attempts (Poisson, ±10%).
	if started < 850 || started > 1150 {
		t.Errorf("Started = %v, want ≈ 1000", started)
	}
	if c.Metrics().Completed < uint64(0.9*started) {
		t.Errorf("Completed = %d of %v under no attack", c.Metrics().Completed, started)
	}
}

// End-to-end: with a full listen queue the solving client is challenged,
// solves, and gets service; the non-solving client fails.
func TestSolvingVsNonSolvingUnderProtection(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:       sweep.DefensePuzzles,
		Backlog:       1,
		PuzzleParams:  puzzle.Params{K: 2, M: 4, L: 32},
		SynAckTimeout: time.Hour,
	})
	pinBacklog(t, w)

	solver := w.client(t, Config{Addr: [4]byte{10, 0, 1, 2}, Solves: true,
		RequestBytes: 5000, Seed: 11, Device: cpumodel.CPU1})
	nonSolver := w.client(t, Config{Addr: [4]byte{10, 0, 1, 3}, Solves: false,
		RequestBytes: 5000, Seed: 12})
	solver.Connect()
	nonSolver.Connect()
	w.eng.Run(30 * time.Second)

	if solver.Metrics().Completed != 1 {
		t.Errorf("solver Completed = %d, want 1 (solves started %d)",
			solver.Metrics().Completed, solver.Metrics().SolvesStarted)
	}
	if nonSolver.Metrics().Completed != 0 {
		t.Errorf("non-solver Completed = %d, want 0", nonSolver.Metrics().Completed)
	}
	if nonSolver.Metrics().Failed != 1 {
		t.Errorf("non-solver Failed = %d, want 1", nonSolver.Metrics().Failed)
	}
}

func synSegment(src, dst [4]byte, isn uint32) tcpkit.Segment {
	return tcpkit.Segment{
		Src: src, Dst: dst, SrcPort: 4000, DstPort: 80,
		Seq: isn, Flags: tcpkit.FlagSYN,
	}
}

// nullNode is a host that never answers — its SYN pins a half-open slot.
type nullNode struct{ addr [4]byte }

func (n nullNode) Addr() netsim.Addr   { return n.addr }
func (nullNode) Handle(tcpkit.Segment) {}

// pinBacklog occupies one listen-queue slot with a never-completing
// handshake from a silent host.
func pinBacklog(t *testing.T, w *world) {
	t.Helper()
	silent := nullNode{addr: [4]byte{10, 0, 1, 9}}
	if err := w.net.Attach(silent, netsim.DefaultHostLink()); err != nil {
		t.Fatalf("attach silent host: %v", err)
	}
	w.net.Send(synSegment(silent.addr, w.server.Addr(), 1234))
	w.eng.Run(w.eng.Now() + 100*time.Millisecond)
	if w.server.ListenLen() == 0 {
		t.Fatal("backlog not pinned")
	}
}

func TestClientRetransmitsAndFails(t *testing.T) {
	// Server with backlog 0 behaviour: protection none + tiny backlog that
	// is instantly filled by another host so our client's SYNs are dropped.
	w := newWorld(t, serversim.Config{
		Defense:       sweep.DefenseNone,
		Backlog:       1,
		SynAckTimeout: time.Hour,
	})
	pinBacklog(t, w)

	c := w.client(t, Config{Seed: 9, RTOs: []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond,
	}})
	c.Connect()
	w.eng.Run(5 * time.Second)
	m := c.Metrics()
	if m.Failed != 1 {
		t.Errorf("Failed = %d, want 1", m.Failed)
	}
	if m.RetriesSYN != 2 {
		t.Errorf("RetriesSYN = %d, want 2", m.RetriesSYN)
	}
}

func TestClientAbandonsWhenCPUOverloaded(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:       sweep.DefensePuzzles,
		Backlog:       1,
		PuzzleParams:  puzzle.Params{K: 2, M: 17, L: 32},
		SynAckTimeout: time.Hour,
	})
	pinBacklog(t, w)

	// A slow device with a high request rate: the CPU backlog must trip
	// MaxSolveBacklog and abort attempts.
	c := w.client(t, Config{
		Rate: 50, Solves: true,
		Device:          cpumodel.D1, // 49617 h/s, each solve ≈ 5 s
		MaxSolveBacklog: time.Second,
		Seed:            10, StopAt: 10 * time.Second,
	})
	w.eng.Run(20 * time.Second)
	if c.Metrics().SolvesAborted == 0 {
		t.Error("no solves aborted despite overloaded CPU")
	}
}

func TestClientSimCryptoEndToEnd(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:       sweep.DefensePuzzles,
		Backlog:       1,
		PuzzleParams:  puzzle.Params{K: 2, M: 17, L: 32},
		SynAckTimeout: time.Hour,
	})
	pinBacklog(t, w)

	c := w.client(t, Config{Solves: true,
		RequestBytes: 5000, Seed: 13, Device: cpumodel.CPU1})
	c.Connect()
	w.eng.Run(30 * time.Second)
	if c.Metrics().Completed != 1 {
		t.Fatalf("Completed = %d, want 1", c.Metrics().Completed)
	}
	// The solve time must reflect the modelled CPU: k·2^17 hashes at
	// 450k h/s ≈ 0.3–1.2 s.
	ct := c.Metrics().ConnTimes[0]
	if ct < 0.05 || ct > 5 {
		t.Errorf("connection time %v s outside the expected CPU-bound range", ct)
	}
}

func TestClientDefersArrivalsWhileSolving(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:       sweep.DefensePuzzles,
		Backlog:       1,
		PuzzleParams:  puzzle.Params{K: 2, M: 17, L: 32},
		SynAckTimeout: time.Hour,
	})
	pinBacklog(t, w)
	c := w.client(t, Config{
		Rate: 40, Solves: true,
		Device:          cpumodel.D1, // each solve ≈ 5 s
		MaxSolveBacklog: 500 * time.Millisecond,
		Seed:            21, StopAt: 10 * time.Second,
	})
	w.eng.Run(15 * time.Second)
	m := c.Metrics()
	if m.SkippedBusy == 0 {
		t.Error("no arrivals deferred despite a saturated solver")
	}
	// Deferred arrivals are not failures: the generator produced ~400
	// arrivals but only a few attempts launched.
	if m.Started > 50 {
		t.Errorf("Started = %d, want throttled to the solve rate", m.Started)
	}
	if m.SkippedBusy+m.Started < 300 {
		t.Errorf("skipped %d + started %d, want ≈ 400 arrivals", m.SkippedBusy, m.Started)
	}
}

// The SYN's options area is a constant; it must be the bytes the codec
// marshals for MSS 1460 and window scale 7, which every SYN carried while
// the area was built per packet.
func TestSynOptionsAreTheMarshalledArea(t *testing.T) {
	want, err := tcpopt.MarshalOptions([]tcpopt.Option{tcpopt.MSSOption(1460), tcpopt.WScaleOption(7)})
	if err != nil {
		t.Fatalf("MarshalOptions: %v", err)
	}
	if !bytes.Equal(synOptions, want) {
		t.Errorf("synOptions = %x, MarshalOptions gives %x", synOptions, want)
	}
}

// TestAllocBudgetConnect pins the benchmark's clientsim.connect_allocs:
// opening a connection that never completes (so no record is ever freed)
// costs the connection record, its one bound timer callback and the RTO's
// engine event, plus the connection map's growth — 5 objects while the
// options area was marshalled per SYN, and 4 with a closure per timer.
func TestAllocBudgetConnect(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	eng := netsim.NewEngine()
	c, err := New(eng, netsim.NewNetwork(eng), netsim.DefaultHostLink(), Config{
		Addr: [4]byte{10, 0, 1, 1}, ServerAddr: [4]byte{10, 0, 0, 1}, Solves: true, Seed: 1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const batch = 1000 // AllocsPerRun reports whole objects per call
	if got := testing.AllocsPerRun(5, func() {
		for range batch {
			c.Connect()
		}
	}) / batch; got > 3.1 {
		t.Errorf("%.2f allocs per Connect, budget 3.1", got)
	}
}

// TestStaleSolveSkipsRecycledRecord: an attempt is reset while its solve
// is queued, the next Connect takes over its record, and the old solve
// then reaches the head of the CPU queue. It must send no ACK — the
// record's generation has moved on — and the new attempt completes.
func TestStaleSolveSkipsRecycledRecord(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:         sweep.DefensePuzzles,
		AlwaysChallenge: true,
		PuzzleParams:    puzzle.Params{K: 2, M: 17, L: 32},
	})
	c := w.client(t, Config{Solves: true,
		RequestBytes: 5000, Seed: 13, Device: cpumodel.CPU1})
	c.Connect()
	w.eng.Run(50 * time.Millisecond)
	if len(c.conns) != 1 {
		t.Fatalf("%d attempts open, want 1", len(c.conns))
	}
	var first *cconn
	for _, cc := range c.conns {
		first = cc
	}
	if first.state != stateSolving || c.solves.Len() != 1 {
		t.Fatalf("state %d with %d solves queued; want solving, 1", first.state, c.solves.Len())
	}
	port := first.port
	w.net.Send(tcpkit.Segment{
		Src: w.server.Addr(), Dst: c.Addr(), SrcPort: 80, DstPort: port,
		Flags: tcpkit.FlagRST,
	})
	w.eng.Run(60 * time.Millisecond)
	if c.Metrics().Failed != 1 {
		t.Fatalf("Failed = %d after RST, want 1", c.Metrics().Failed)
	}
	c.Connect()
	if cc := c.conns[uint32(port+1)]; cc != first {
		t.Fatalf("second attempt got a new record; want the freed one reused")
	}
	w.eng.Run(100 * time.Millisecond)
	if first.state != stateSolving || c.solves.Len() != 2 {
		t.Fatalf("state %d with %d solves queued; want solving behind the stale solve", first.state, c.solves.Len())
	}
	w.eng.Run(30 * time.Second)
	m, srv := c.Metrics(), w.server.Metrics()
	if m.Completed != 1 || m.Failed != 1 {
		t.Errorf("Completed = %d, Failed = %d; want 1, 1", m.Completed, m.Failed)
	}
	if srv.SolutionsVerified != 1 || srv.SolutionInvalid != 0 || srv.SolutionMalformed != 0 {
		t.Errorf("server saw %d verified, %d invalid, %d malformed solutions; want only the second attempt's",
			srv.SolutionsVerified, srv.SolutionInvalid, srv.SolutionMalformed)
	}
}

// TestAllocBudgetConnectCycle: once the free lists and metric arrays are
// warm, a whole attempt — Connect, handshake, request, response, close —
// allocates nothing on either side beyond the amortised growth of the
// per-second series and the server's once-a-second sweep event.
func TestAllocBudgetConnectCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	w := newWorld(t, serversim.Config{Defense: sweep.DefenseNone, ServiceTime: time.Microsecond})
	c := w.client(t, Config{RequestBytes: 1000, Seed: 3})
	cycle := func() {
		c.Connect()
		w.eng.Run(w.eng.Now() + 20*time.Millisecond)
	}
	for range 100 {
		cycle()
	}
	const batch = 1000
	got := testing.AllocsPerRun(3, func() {
		for range batch {
			cycle()
		}
	}) / batch
	if m := c.Metrics(); m.Completed != m.Started {
		t.Fatalf("%d of %d attempts completed", m.Completed, m.Started)
	}
	t.Logf("%.4f allocs per cycle", got)
	if got > 0.1 {
		t.Errorf("%.3f allocs per connect-to-complete cycle, budget 0.1", got)
	}
}

// TestClientResponseTimeout: an established attempt whose request is
// never answered (the server has no workers) fails when the response
// timeout — the record's one timer, re-armed after the handshake — fires.
func TestClientResponseTimeout(t *testing.T) {
	w := newWorld(t, serversim.Config{Defense: sweep.DefenseNone, Workers: -1})
	c := w.client(t, Config{Seed: 3, ResponseTimeout: 2 * time.Second})
	c.Connect()
	w.eng.Run(time.Second)
	if m := c.Metrics(); m.Established != 1 || m.Failed != 0 {
		t.Fatalf("after 1 s: Established = %d, Failed = %d; want 1, 0", m.Established, m.Failed)
	}
	w.eng.Run(5 * time.Second)
	if m := c.Metrics(); m.Failed != 1 || m.Completed != 0 || len(c.conns) != 0 {
		t.Errorf("after 5 s: Failed = %d, Completed = %d, %d attempts open; want 1, 0, 0", m.Failed, m.Completed, len(c.conns))
	}
}

// TestDeferredBytesCountBeforeTimeout: a response whose last segment the
// client's shallow downlink drops never completes, and the response
// timeout fails it with no delivery to the client in between. The bytes
// of the segments that did arrive count, in their own buckets, exactly
// as they do when every segment is delivered as an event — with a no-op
// tap registered, which turns deferral off — because the client flushes
// its deferred deliveries before it fails the attempt.
func TestDeferredBytesCountBeforeTimeout(t *testing.T) {
	run := func(tapped bool) (*Client, netsim.LinkStats) {
		w := newWorld(t, serversim.Config{Defense: sweep.DefenseNone})
		if tapped {
			w.net.RegisterTap(func(time.Duration, netsim.TapDir, tcpkit.Segment) {})
		}
		shallow := netsim.LinkConfig{RateBps: 100e6, Latency: 2 * time.Millisecond, MaxBacklog: time.Millisecond}
		c, err := New(w.eng, w.net, shallow, Config{Addr: [4]byte{10, 0, 1, 1}, ServerAddr: w.server.Addr(), Seed: 3, ResponseTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		c.Connect()
		w.eng.Run(5 * time.Second)
		_, down, _ := w.net.Stats(c.Addr())
		return c, down
	}
	got, down := run(false)
	want, _ := run(true)
	g, r := got.Metrics(), want.Metrics()
	if g.Failed != 1 || g.Completed != 0 || down.Dropped == 0 {
		t.Fatalf("Failed = %d, Completed = %d, downlink %+v: want the one attempt failed after drops", g.Failed, g.Completed, down)
	}
	if gv, rv := g.BytesIn.Values(5*time.Second), r.BytesIn.Values(5*time.Second); !slices.Equal(gv, rv) || gv[0] < 10*1448 {
		t.Errorf("BytesIn = %v deferred, %v per segment; want equal, with the accepted segments' bytes", gv, rv)
	}
}

// New refuses a Poisson rate whose gaps round to zero nanoseconds (or a
// NaN one), naming it, before it attaches anything: the address stays
// free for a valid client. Rates up to one arrival per nanosecond, zero
// (no generator) and negative ones build as before.
func TestNewRejectsRatesThatStallTime(t *testing.T) {
	cases := []struct {
		name   string
		rate   float64
		reject string // the rate as the error names it; "" when accepted
	}{
		{"NaN", math.NaN(), "NaN"},
		{"+Inf", math.Inf(1), "+Inf"},
		{"2e9", 2e9, "2e+09"},
		{"1e9", 1e9, ""},
		{"0", 0, ""},
		{"-1", -1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, serversim.Config{Defense: sweep.DefenseNone})
			cfg := Config{Addr: [4]byte{10, 0, 1, 1}, ServerAddr: w.server.Addr(), Rate: tc.rate, Seed: 3}
			_, err := New(w.eng, w.net, netsim.DefaultHostLink(), cfg)
			if tc.reject == "" {
				if err != nil {
					t.Fatalf("New(rate %v) = %v, want a client", tc.rate, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.reject) {
				t.Fatalf("New(rate %v) error = %v, want one naming the rate %s", tc.rate, err, tc.reject)
			}
			cfg.Rate = 1
			if _, err := New(w.eng, w.net, netsim.DefaultHostLink(), cfg); err != nil {
				t.Errorf("a valid client at the rejected one's address: %v", err)
			}
		})
	}
}
