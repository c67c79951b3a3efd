package serversim

import (
	"bytes"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/pzengine"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// scriptedPeer records everything the server sends it and lets tests inject
// segments manually.
type scriptedPeer struct {
	addr netsim.Addr
	eng  *netsim.Engine
	net  *netsim.Network
	got  []tcpkit.Segment
}

func (p *scriptedPeer) Addr() netsim.Addr { return p.addr }
func (p *scriptedPeer) Handle(seg tcpkit.Segment) {
	p.got = append(p.got, seg)
}

func (p *scriptedPeer) lastSynAck(t *testing.T) tcpkit.Segment {
	t.Helper()
	for i := len(p.got) - 1; i >= 0; i-- {
		if p.got[i].Flags.Has(tcpkit.FlagSYN | tcpkit.FlagACK) {
			return p.got[i]
		}
	}
	t.Fatal("no SYN-ACK received")
	return tcpkit.Segment{}
}

type fixture struct {
	eng    *netsim.Engine
	net    *netsim.Network
	server *Server
	peer   *scriptedPeer
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	eng := netsim.NewEngine()
	network := netsim.NewNetwork(eng)
	cfg.Addr = [4]byte{10, 0, 0, 1}
	srv, err := New(eng, network, netsim.DefaultServerLink(), cfg)
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	peer := &scriptedPeer{addr: [4]byte{10, 0, 0, 99}, eng: eng, net: network}
	if err := network.Attach(peer, netsim.DefaultHostLink()); err != nil {
		t.Fatalf("Attach peer: %v", err)
	}
	return &fixture{eng: eng, net: network, server: srv, peer: peer}
}

func (f *fixture) syn(port uint16, isn uint32) {
	opts, _ := tcpopt.MarshalOptions([]tcpopt.Option{
		tcpopt.MSSOption(1460), tcpopt.WScaleOption(7),
	})
	f.net.Send(tcpkit.Segment{
		Src: f.peer.addr, Dst: f.server.cfg.Addr,
		SrcPort: port, DstPort: f.server.cfg.Port,
		Seq: isn, Flags: tcpkit.FlagSYN, Options: opts,
	})
}

func (f *fixture) ack(port uint16, isn, serverISN uint32, opts []byte, payload int) {
	f.net.Send(tcpkit.Segment{
		Src: f.peer.addr, Dst: f.server.cfg.Addr,
		SrcPort: port, DstPort: f.server.cfg.Port,
		Seq: isn + 1, Ack: serverISN + 1,
		Flags: tcpkit.FlagACK, Options: opts, PayloadLen: payload,
	})
}

func (f *fixture) run(d time.Duration) { f.eng.Run(f.eng.Now() + d) }

func TestPlainHandshakeEstablishes(t *testing.T) {
	f := newFixture(t, Config{Defense: sweep.DefenseNone})
	f.syn(5000, 100)
	f.run(100 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	if sa.Ack != 101 {
		t.Errorf("SYN-ACK ack = %d, want 101", sa.Ack)
	}
	f.ack(5000, 100, sa.Seq, nil, 0)
	f.run(100 * time.Millisecond)
	if f.server.OpenConns() != 1 {
		t.Fatalf("OpenConns = %d, want 1", f.server.OpenConns())
	}
	if f.server.Metrics().Established.Sum() != 1 {
		t.Errorf("Established = %v, want 1", f.server.Metrics().Established.Sum())
	}
}

func TestGettextRequestServed(t *testing.T) {
	f := newFixture(t, Config{Defense: sweep.DefenseNone})
	f.syn(5000, 100)
	f.run(100 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	f.ack(5000, 100, sa.Seq, nil, 0)
	// Request 5000 bytes.
	f.net.Send(tcpkit.Segment{
		Src: f.peer.addr, Dst: f.server.cfg.Addr,
		SrcPort: 5000, DstPort: f.server.cfg.Port,
		Flags: tcpkit.FlagACK | tcpkit.FlagPSH, PayloadLen: 200, Meta: 5000,
	})
	f.run(5 * time.Second)
	var dataBytes int
	for _, seg := range f.peer.got {
		dataBytes += seg.PayloadLen
	}
	if dataBytes < 5000 {
		t.Errorf("received %d data bytes, want ≥ 5000", dataBytes)
	}
	if f.server.Metrics().RequestsServed != 1 {
		t.Errorf("RequestsServed = %d, want 1", f.server.Metrics().RequestsServed)
	}
	// Connection closed after serving; worker released.
	if f.server.OpenConns() != 0 {
		t.Errorf("OpenConns = %d, want 0", f.server.OpenConns())
	}
	if f.server.FreeWorkers() != f.server.cfg.Workers {
		t.Errorf("FreeWorkers = %d, want %d", f.server.FreeWorkers(), f.server.cfg.Workers)
	}
}

func TestBacklogOverflowDropsSYNs(t *testing.T) {
	f := newFixture(t, Config{Defense: sweep.DefenseNone, Backlog: 4})
	for i := 0; i < 10; i++ {
		f.syn(uint16(6000+i), uint32(i))
		f.run(10 * time.Millisecond)
	}
	f.run(100 * time.Millisecond)
	if got := f.server.ListenLen(); got != 4 {
		t.Errorf("ListenLen = %d, want 4", got)
	}
	if f.server.Metrics().SYNsDropped != 6 {
		t.Errorf("SYNsDropped = %d, want 6", f.server.Metrics().SYNsDropped)
	}
}

func TestHalfOpenExpiry(t *testing.T) {
	f := newFixture(t, Config{Defense: sweep.DefenseNone, Backlog: 4, SynAckTimeout: 3 * time.Second})
	f.syn(7000, 1)
	f.run(time.Second)
	if f.server.ListenLen() != 1 {
		t.Fatalf("ListenLen = %d, want 1", f.server.ListenLen())
	}
	f.run(5 * time.Second)
	if f.server.ListenLen() != 0 {
		t.Errorf("ListenLen after expiry = %d, want 0", f.server.ListenLen())
	}
}

func TestCookiesStatelessWhenFull(t *testing.T) {
	f := newFixture(t, Config{Defense: sweep.DefenseCookies, Backlog: 1})
	f.syn(8000, 1)
	f.run(50 * time.Millisecond)
	// Queue now full; next SYN gets a cookie SYN-ACK with no state.
	f.syn(8001, 2)
	f.run(50 * time.Millisecond)
	if got := f.server.ListenLen(); got != 1 {
		t.Fatalf("ListenLen = %d, want 1 (cookie path is stateless)", got)
	}
	if f.server.Metrics().CookieSynAcks.Sum() != 1 {
		t.Errorf("CookieSynAcks = %v, want 1", f.server.Metrics().CookieSynAcks.Sum())
	}
	sa := f.peer.lastSynAck(t)
	if sa.DstPort != 8001 {
		t.Fatalf("last SYN-ACK for port %d, want 8001", sa.DstPort)
	}
	// Complete the cookie handshake.
	f.ack(8001, 2, sa.Seq, nil, 0)
	f.run(50 * time.Millisecond)
	if f.server.OpenConns() != 1 {
		t.Errorf("OpenConns = %d, want 1 (cookie ACK must establish)", f.server.OpenConns())
	}
}

func TestCookieForgeryRejected(t *testing.T) {
	f := newFixture(t, Config{Defense: sweep.DefenseCookies, Backlog: 1})
	f.syn(8000, 1)
	f.run(50 * time.Millisecond)
	// Forge an ACK with a made-up cookie.
	f.ack(8005, 77, 0xdeadbeef, nil, 0)
	f.run(50 * time.Millisecond)
	if f.server.OpenConns() != 0 {
		t.Errorf("OpenConns = %d, want 0 after forged cookie", f.server.OpenConns())
	}
	if f.server.Metrics().CookieFailures == 0 {
		t.Error("CookieFailures not incremented")
	}
}

func puzzleCfg(sim bool) Config {
	return Config{
		Defense:         sweep.DefensePuzzles,
		Backlog:         1,
		PuzzleParams:    puzzle.Params{K: 2, M: 4, L: 32},
		SimulatedCrypto: sim,
	}
}

// fillListenQueue occupies the single backlog slot so puzzles activate.
func fillListenQueue(f *fixture, t *testing.T) {
	t.Helper()
	f.syn(9999, 42)
	f.run(50 * time.Millisecond)
	if !f.server.listenQ.Full() {
		t.Fatal("listen queue not full")
	}
}

func TestPuzzleOpportunisticController(t *testing.T) {
	f := newFixture(t, puzzleCfg(false))
	// First SYN: queues empty → normal SYN-ACK, no challenge.
	f.syn(9000, 5)
	f.run(50 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	opts, err := tcpopt.ParseOptions(sa.Options)
	if err != nil {
		t.Fatalf("ParseOptions: %v", err)
	}
	if _, ok := tcpopt.FindOption(opts, tcpopt.KindChallenge); ok {
		t.Error("challenge issued while queues empty (controller not opportunistic)")
	}
	// Queue is now full (backlog 1) → next SYN must be challenged.
	f.syn(9001, 6)
	f.run(50 * time.Millisecond)
	sa2 := f.peer.lastSynAck(t)
	if sa2.DstPort != 9001 {
		t.Fatalf("SYN-ACK for port %d, want 9001", sa2.DstPort)
	}
	opts2, err := tcpopt.ParseOptions(sa2.Options)
	if err != nil {
		t.Fatalf("ParseOptions: %v", err)
	}
	if _, ok := tcpopt.FindOption(opts2, tcpopt.KindChallenge); !ok {
		t.Error("no challenge issued while listen queue full")
	}
	if f.server.ListenLen() != 1 {
		t.Errorf("ListenLen = %d: challenge path must stay stateless", f.server.ListenLen())
	}
}

// solveAndAck solves the challenge in sa (real crypto) and sends the ACK.
func solveAndAck(t *testing.T, f *fixture, sa tcpkit.Segment, isn uint32) {
	t.Helper()
	opts, err := tcpopt.ParseOptions(sa.Options)
	if err != nil {
		t.Fatalf("ParseOptions: %v", err)
	}
	chOpt, ok := tcpopt.FindOption(opts, tcpopt.KindChallenge)
	if !ok {
		t.Fatal("no challenge option")
	}
	blk, err := tcpopt.ParseChallenge(chOpt)
	if err != nil {
		t.Fatalf("ParseChallenge: %v", err)
	}
	sol, _, err := puzzle.Solve(blk.Challenge)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	sOpt, err := tcpopt.EncodeSolution(tcpopt.SolutionBlock{
		MSS: 1460, WScale: 7, HasTimestamp: true, Solution: sol,
	})
	if err != nil {
		t.Fatalf("EncodeSolution: %v", err)
	}
	raw, err := tcpopt.MarshalOptions([]tcpopt.Option{sOpt})
	if err != nil {
		t.Fatalf("MarshalOptions: %v", err)
	}
	f.ack(sa.DstPort, isn, sa.Seq, raw, 0)
}

func TestPuzzleSolvedHandshakeEstablishes(t *testing.T) {
	f := newFixture(t, puzzleCfg(false))
	fillListenQueue(f, t)
	f.syn(9001, 6)
	f.run(50 * time.Millisecond)
	solveAndAck(t, f, f.peer.lastSynAck(t), 6)
	f.run(50 * time.Millisecond)
	if f.server.Metrics().SolutionsVerified != 1 {
		t.Errorf("SolutionsVerified = %d, want 1", f.server.Metrics().SolutionsVerified)
	}
	if f.server.OpenConns() != 1 {
		t.Errorf("OpenConns = %d, want 1", f.server.OpenConns())
	}
}

func TestPuzzleBogusSolutionRejected(t *testing.T) {
	// Not puzzleCfg: at the shared K=2/M=4 difficulty an all-zero guess
	// verifies by luck once per 2^8 runs (the issuer secret is drawn from
	// crypto/rand, so the test cannot pin the challenge). M=20 pushes the
	// false-accept odds to 2^-40 while verification stays instant.
	f := newFixture(t, Config{
		Defense:         sweep.DefensePuzzles,
		Backlog:         1,
		PuzzleParams:    puzzle.Params{K: 2, M: 20, L: 32},
		SimulatedCrypto: false,
	})
	fillListenQueue(f, t)
	f.syn(9001, 6)
	f.run(50 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	// Garbage solution of the right shape.
	p := f.server.engine.Params()
	garbage := puzzle.Solution{Params: p, Timestamp: uint32(f.eng.Now() / time.Second), Solutions: make([][]byte, p.K)}
	for i := range garbage.Solutions {
		garbage.Solutions[i] = make([]byte, p.SolutionBytes())
	}
	sOpt, err := tcpopt.EncodeSolution(tcpopt.SolutionBlock{HasTimestamp: true, Solution: garbage})
	if err != nil {
		t.Fatalf("EncodeSolution: %v", err)
	}
	raw, _ := tcpopt.MarshalOptions([]tcpopt.Option{sOpt})
	f.ack(sa.DstPort, 6, sa.Seq, raw, 0)
	f.run(50 * time.Millisecond)
	if f.server.OpenConns() != 0 {
		t.Errorf("OpenConns = %d, want 0", f.server.OpenConns())
	}
	if f.server.Metrics().SolutionInvalid == 0 {
		t.Error("SolutionInvalid not incremented")
	}
}

func TestPuzzleAckWithoutSolutionIgnored(t *testing.T) {
	f := newFixture(t, puzzleCfg(false))
	fillListenQueue(f, t)
	f.syn(9001, 6)
	f.run(50 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	f.ack(sa.DstPort, 6, sa.Seq, nil, 0)
	f.run(50 * time.Millisecond)
	if f.server.OpenConns() != 0 {
		t.Errorf("OpenConns = %d, want 0", f.server.OpenConns())
	}
	if f.server.Metrics().AcksWithoutSolution != 1 {
		t.Errorf("AcksWithoutSolution = %d, want 1", f.server.Metrics().AcksWithoutSolution)
	}
	// The deceived peer sends data and must receive an RST.
	before := len(f.peer.got)
	f.ack(sa.DstPort, 6, sa.Seq, nil, 100)
	f.run(50 * time.Millisecond)
	foundRST := false
	for _, seg := range f.peer.got[before:] {
		if seg.Flags.Has(tcpkit.FlagRST) {
			foundRST = true
		}
	}
	if !foundRST {
		t.Error("no RST sent to deceived peer probing with data")
	}
}

func TestPuzzleDeceptionWhenAcceptQueueFull(t *testing.T) {
	cfg := puzzleCfg(false)
	cfg.AcceptBacklog = 1
	cfg.Workers = -1 // nothing drains the accept queue
	f := newFixture(t, cfg)
	fillListenQueue(f, t)

	// First solver takes the only accept slot.
	f.syn(9001, 6)
	f.run(50 * time.Millisecond)
	solveAndAck(t, f, f.peer.lastSynAck(t), 6)
	f.run(50 * time.Millisecond)
	if f.server.AcceptLen() != 1 {
		t.Fatalf("AcceptLen = %d, want 1", f.server.AcceptLen())
	}

	// Second solver: accept queue full → ACK ignored before verification.
	verified := f.server.Metrics().SolutionsVerified
	f.syn(9002, 7)
	f.run(50 * time.Millisecond)
	solveAndAck(t, f, f.peer.lastSynAck(t), 7)
	f.run(50 * time.Millisecond)
	if f.server.Metrics().DeceptionIgnored != 1 {
		t.Errorf("DeceptionIgnored = %d, want 1", f.server.Metrics().DeceptionIgnored)
	}
	if f.server.Metrics().SolutionsVerified != verified {
		t.Error("verification work performed while accept queue full")
	}
}

func TestPuzzleChallengeSentEvenWhenAcceptQueueFull(t *testing.T) {
	cfg := puzzleCfg(false)
	cfg.Backlog = 100
	cfg.AcceptBacklog = 1
	cfg.Workers = -1
	f := newFixture(t, cfg)
	// Fill the accept queue via a normal handshake.
	f.syn(9100, 1)
	f.run(50 * time.Millisecond)
	f.ack(9100, 1, f.peer.lastSynAck(t).Seq, nil, 0)
	f.run(50 * time.Millisecond)
	if f.server.AcceptLen() != 1 {
		t.Fatalf("AcceptLen = %d, want 1", f.server.AcceptLen())
	}
	// New SYN must be challenged (modified §5 behaviour), not dropped.
	f.syn(9101, 2)
	f.run(50 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	if sa.DstPort != 9101 {
		t.Fatal("no SYN-ACK for new SYN while accept queue full")
	}
	opts, _ := tcpopt.ParseOptions(sa.Options)
	if _, ok := tcpopt.FindOption(opts, tcpopt.KindChallenge); !ok {
		t.Error("SYN while accept queue full not challenged")
	}
}

func TestPuzzleReplayTakesOneSlot(t *testing.T) {
	cfg := puzzleCfg(false)
	cfg.Workers = -1
	cfg.AcceptBacklog = 10
	f := newFixture(t, cfg)
	fillListenQueue(f, t)
	f.syn(9001, 6)
	f.run(50 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	solveAndAck(t, f, sa, 6)
	f.run(50 * time.Millisecond)
	if f.server.AcceptLen() != 1 {
		t.Fatalf("AcceptLen = %d, want 1", f.server.AcceptLen())
	}
	// Replay the identical solution while the connection is live: it is
	// absorbed by the established connection and takes no second slot.
	solveAndAck(t, f, sa, 6)
	f.run(50 * time.Millisecond)
	if f.server.AcceptLen() != 1 {
		t.Errorf("AcceptLen = %d after replay, want 1", f.server.AcceptLen())
	}
	// Tear the connection down (RST) while the accept-queue entry remains,
	// then replay again: the stateless path must detect the occupied slot.
	f.net.Send(tcpkit.Segment{
		Src: f.peer.addr, Dst: f.server.cfg.Addr,
		SrcPort: sa.DstPort, DstPort: f.server.cfg.Port,
		Flags: tcpkit.FlagRST,
	})
	f.run(50 * time.Millisecond)
	solveAndAck(t, f, sa, 6)
	f.run(50 * time.Millisecond)
	if f.server.AcceptLen() != 1 {
		t.Errorf("AcceptLen = %d after replay into dead conn, want 1", f.server.AcceptLen())
	}
	if f.server.Metrics().ReplaysBlocked == 0 {
		t.Error("ReplaysBlocked not incremented")
	}
}

func TestPuzzleExpiredSolutionRejected(t *testing.T) {
	cfg := puzzleCfg(false)
	cfg.PuzzleMaxAge = 2 * time.Second
	f := newFixture(t, cfg)
	fillListenQueue(f, t)
	f.syn(9001, 6)
	f.run(50 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	// Wait beyond the replay window before answering.
	f.run(5 * time.Second)
	solveAndAck(t, f, sa, 6)
	f.run(50 * time.Millisecond)
	if f.server.OpenConns() != 0 {
		t.Errorf("OpenConns = %d, want 0 for expired solution", f.server.OpenConns())
	}
	if f.server.Metrics().SolutionInvalid == 0 {
		t.Error("expired solution not counted invalid")
	}
}

func TestSimEngineAcceptsSimSolutions(t *testing.T) {
	f := newFixture(t, puzzleCfg(true))
	fillListenQueue(f, t)
	f.syn(9001, 6)
	f.run(50 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	opts, _ := tcpopt.ParseOptions(sa.Options)
	chOpt, ok := tcpopt.FindOption(opts, tcpopt.KindChallenge)
	if !ok {
		t.Fatal("no challenge")
	}
	blk, err := tcpopt.ParseChallenge(chOpt)
	if err != nil {
		t.Fatalf("ParseChallenge: %v", err)
	}
	sol := pzengine.SimSolution(blk.Challenge)
	sOpt, err := tcpopt.EncodeSolution(tcpopt.SolutionBlock{HasTimestamp: true, Solution: sol})
	if err != nil {
		t.Fatalf("EncodeSolution: %v", err)
	}
	raw, _ := tcpopt.MarshalOptions([]tcpopt.Option{sOpt})
	f.ack(sa.DstPort, 6, sa.Seq, raw, 0)
	f.run(50 * time.Millisecond)
	if f.server.OpenConns() != 1 {
		t.Errorf("OpenConns = %d, want 1 with sim solution", f.server.OpenConns())
	}
}

func TestWorkerPoolPinnedByIdleConnections(t *testing.T) {
	cfg := Config{Defense: sweep.DefenseNone, Workers: 2, IdleTimeout: 3 * time.Second}
	f := newFixture(t, cfg)
	for i := 0; i < 2; i++ {
		port := uint16(9200 + i)
		f.syn(port, uint32(i))
		f.run(20 * time.Millisecond)
		f.ack(port, uint32(i), f.peer.lastSynAck(t).Seq, nil, 0)
		f.run(20 * time.Millisecond)
	}
	if f.server.FreeWorkers() != 0 {
		t.Fatalf("FreeWorkers = %d, want 0", f.server.FreeWorkers())
	}
	// After the idle timeout the workers are reclaimed.
	f.run(5 * time.Second)
	if f.server.FreeWorkers() != 2 {
		t.Errorf("FreeWorkers = %d, want 2 after idle timeout", f.server.FreeWorkers())
	}
	if f.server.Metrics().IdleTimeouts != 2 {
		t.Errorf("IdleTimeouts = %d, want 2", f.server.Metrics().IdleTimeouts)
	}
}

func TestSysctlRetuning(t *testing.T) {
	f := newFixture(t, puzzleCfg(false))
	newParams := puzzle.Params{K: 1, M: 6, L: 32}
	if err := f.server.Issuer().SetParams(newParams); err != nil {
		t.Fatalf("SetParams: %v", err)
	}
	fillListenQueue(f, t)
	f.syn(9001, 6)
	f.run(50 * time.Millisecond)
	sa := f.peer.lastSynAck(t)
	opts, _ := tcpopt.ParseOptions(sa.Options)
	chOpt, ok := tcpopt.FindOption(opts, tcpopt.KindChallenge)
	if !ok {
		t.Fatal("no challenge")
	}
	blk, err := tcpopt.ParseChallenge(chOpt)
	if err != nil {
		t.Fatalf("ParseChallenge: %v", err)
	}
	if blk.Challenge.Params != newParams {
		t.Errorf("challenge params = %v, want %v", blk.Challenge.Params, newParams)
	}
}

// The hand-written default options area must be what the codec would have
// marshalled for MSS 1460 and window scale 7 — the bytes every plain
// SYN-ACK carried before the area became a constant.
func TestDefaultSynAckOptionsAreTheMarshalledArea(t *testing.T) {
	want, err := tcpopt.MarshalOptions([]tcpopt.Option{tcpopt.MSSOption(1460), tcpopt.WScaleOption(7)})
	if err != nil {
		t.Fatalf("MarshalOptions: %v", err)
	}
	if !bytes.Equal(defaultSynAckOptions, want) {
		t.Errorf("defaultSynAckOptions = %x, MarshalOptions gives %x", defaultSynAckOptions, want)
	}
	if mss, wscale := parseSynOptions(defaultSynAckOptions); mss != 1460 || wscale != 7 {
		t.Errorf("parseSynOptions(default area) = %d, %d; want 1460, 7", mss, wscale)
	}
}

// parseSynOptions reads the two fields straight off the bytes and must
// keep the kernel defaults of the list-building parser it replaced: for a
// missing or ill-formed option that option's default, and for an area
// malformed anywhere — even after both options — both defaults.
func TestParseSynOptionsDefaults(t *testing.T) {
	for _, tt := range []struct {
		name   string
		raw    []byte
		mss    uint16
		wscale uint8
	}{
		{"empty", nil, 536, 0},
		{"mss only", []byte{2, 4, 0x05, 0xb4}, 1460, 0},
		{"wscale only", []byte{3, 3, 9, 1}, 536, 9},
		{"wscale first", []byte{3, 3, 9, 1, 2, 4, 0x02, 0x00}, 512, 9},
		{"first of two MSS options wins", []byte{2, 4, 0x02, 0x00, 2, 4, 0x05, 0xb4}, 512, 0},
		{"MSS of the wrong size", []byte{2, 3, 0x05, 3, 3, 9}, 536, 9},
		{"window scale of the wrong size", []byte{2, 4, 0x05, 0xb4, 3, 4, 9, 9}, 1460, 0},
		{"options after EOL are not read", []byte{2, 4, 0x05, 0xb4, 0, 3, 3, 9}, 1460, 0},
		{"truncated after both options", []byte{2, 4, 0x05, 0xb4, 3, 3, 9, 8}, 536, 0},
		{"bad length after both options", []byte{2, 4, 0x05, 0xb4, 3, 3, 9, 8, 1}, 536, 0},
	} {
		if mss, wscale := parseSynOptions(tt.raw); mss != tt.mss || wscale != tt.wscale {
			t.Errorf("%s: parseSynOptions(%x) = %d, %d; want %d, %d", tt.name, tt.raw, mss, wscale, tt.mss, tt.wscale)
		}
	}
}

// Two servers built from one Config put the same preimage bits on the
// wire — the issuer secret comes from Config.Seed, not from crypto/rand —
// and a different seed different ones, with real and simulated crypto
// alike.
func TestIssuerSecretComesFromSeed(t *testing.T) {
	flow := puzzle.FlowID{SrcIP: [4]byte{10, 0, 0, 99}, DstIP: [4]byte{10, 0, 0, 1}, SrcPort: 9000, DstPort: 80, ISN: 5}
	for _, simulated := range []bool{true, false} {
		preimage := func(seed int64) []byte {
			f := newFixture(t, Config{Defense: sweep.DefensePuzzles, SimulatedCrypto: simulated, Seed: seed})
			return f.server.Issuer().Issue(flow).Preimage
		}
		if a, b := preimage(7), preimage(7); !bytes.Equal(a, b) {
			t.Errorf("SimulatedCrypto=%v: seed 7 gave preimages %x and %x", simulated, a, b)
		}
		if a, b := preimage(7), preimage(8); bytes.Equal(a, b) {
			t.Errorf("SimulatedCrypto=%v: seeds 7 and 8 gave the same preimage %x", simulated, a)
		}
	}
}
