package attacksim

import (
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/serversim"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
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

// fleet attaches a population (one source unless cfg says otherwise)
// aimed at the world's server, whose metrics count its establishments in
// their aggregate series.
func (w *world) fleet(t *testing.T, cfg MacroConfig) *MacroFleet {
	t.Helper()
	cfg.Sources = max(cfg.Sources, 1)
	if cfg.BaseAddr == ([4]byte{}) {
		cfg.BaseAddr = [4]byte{10, 0, 2, 1}
	}
	cfg.ServerAddr = w.server.Addr()
	f, err := NewMacroFleet(w.net, cfg)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	w.server.Metrics().AggregateSrcs(f.Contains)
	return f
}

func TestSYNFloodFillsListenQueue(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense: sweep.DefenseNone,
		Backlog: 64,
	})
	w.fleet(t, MacroConfig{Attack: sweep.AttackSYNFlood, PerSourceRate: 500, Seed: 1, StopAt: 10 * time.Second})
	w.eng.Run(5 * time.Second)
	if got := w.server.ListenLen(); got != 64 {
		t.Errorf("ListenLen = %d, want 64 (saturated)", got)
	}
	if w.server.Metrics().SYNsDropped == 0 {
		t.Error("no SYN drops under flood")
	}
	// SYN-ACKs to spoofed sources must be unroutable.
	if w.net.Unroutable() == 0 {
		t.Error("no unroutable replies — spoofing not exercised")
	}
}

func TestSYNFloodHarmlessAgainstCookies(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense: sweep.DefenseCookies,
		Backlog: 64,
	})
	w.fleet(t, MacroConfig{Attack: sweep.AttackSYNFlood, PerSourceRate: 1000, Seed: 2, StopAt: 10 * time.Second})
	w.eng.Run(5 * time.Second)
	// Cookies keep serving statelessly; no accept-queue damage.
	if w.server.AcceptLen() != 0 {
		t.Errorf("AcceptLen = %d, want 0", w.server.AcceptLen())
	}
	if w.server.Metrics().CookieSynAcks.Sum() == 0 {
		t.Error("no cookie SYN-ACKs issued")
	}
}

func TestConnFloodFillsAcceptQueueWithoutPuzzles(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:       sweep.DefenseCookies,
		Backlog:       32,
		AcceptBacklog: 32,
		Workers:       -1,
	})
	w.fleet(t, MacroConfig{Attack: sweep.AttackConnFlood, PerSourceRate: 200, Seed: 3, StopAt: 30 * time.Second})
	w.eng.Run(10 * time.Second)
	if got := w.server.AcceptLen(); got != 32 {
		t.Errorf("AcceptLen = %d, want 32 (saturated)", got)
	}
}

func TestConnFloodNonSolvingBlockedByPuzzles(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:       sweep.DefensePuzzles,
		Backlog:       8,
		AcceptBacklog: 32,
		Workers:       -1,
		PuzzleParams:  puzzle.Params{K: 2, M: 17, L: 32},
	})
	bot := w.fleet(t, MacroConfig{Attack: sweep.AttackConnFlood, PerSourceRate: 200, Solves: false,
		Seed: 4, StopAt: 30 * time.Second})
	w.eng.Run(10 * time.Second)
	// The controller engages at its watermark, after which every SYN is
	// challenged and the bot's plain ACKs are ignored: of ~2000 attempts
	// only a handful establish before protection engages.
	if got := w.server.Metrics().Established.Sum(); got > 10 {
		t.Errorf("Established = %v, want a handful (pre-engagement only)", got)
	}
	if w.server.Metrics().AcksWithoutSolution == 0 {
		t.Error("no solutionless ACKs recorded")
	}
	if bot.Metrics().BelievedEstablished == 0 {
		t.Error("bot never believed it connected (deception not exercised)")
	}
}

func TestSolvingBotIsCPURateLimited(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:         sweep.DefensePuzzles,
		Backlog:         2,
		AcceptBacklog:   100000,
		Workers:         -1,
		AlwaysChallenge: true,
		PuzzleParams:    puzzle.Params{K: 2, M: 17, L: 32},
	})
	bot := w.fleet(t, MacroConfig{Attack: sweep.AttackConnFlood, PerSourceRate: 500, Solves: true,
		// source 0 runs on cpumodel.CPU1
		MaxSolveBacklog: 2 * time.Second, // "smart" variant keeps solutions fresh
		Seed:            5, StopAt: 60 * time.Second})
	w.eng.Run(30 * time.Second)

	// CPU1 at 450 kh/s, ~2·2^17 hashes per solve ⇒ ≈ 1.7 solves/s, so in
	// 30 s the bot completes at most ~60 handshakes of its ~15000 attempts.
	established := w.server.Metrics().EstablishedAgg.SumRange(0, 30*time.Second)
	if established > 120 {
		t.Errorf("established = %v, want ≪ attack rate (CPU limit)", established)
	}
	if established == 0 {
		t.Error("solving bot never established (should trickle through)")
	}
	if bot.Metrics().ChallengesDiscarded == 0 {
		t.Error("no challenges discarded despite CPU saturation")
	}
}

func TestSolutionFloodBurnsBoundedServerWork(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:      sweep.DefensePuzzles,
		Backlog:      4,
		PuzzleParams: puzzle.Params{K: 2, M: 17, L: 32},
		Workers:      -1,
	})
	w.fleet(t, MacroConfig{Attack: sweep.AttackSolutionFlood, PerSourceRate: 1000, Seed: 6, StopAt: 20 * time.Second})
	w.eng.Run(10 * time.Second)
	m := w.server.Metrics()
	if m.SolutionInvalid == 0 && m.SolutionMalformed == 0 {
		t.Errorf("no bogus solutions processed (invalid=%d malformed=%d)",
			m.SolutionInvalid, m.SolutionMalformed)
	}
	if w.server.OpenConns() != 0 {
		t.Errorf("OpenConns = %d, want 0", w.server.OpenConns())
	}
	// §7: verification is cheap — utilisation stays tiny even at 1000 pps.
	util := w.server.CPU().Utilisation(10 * time.Second)
	for i, u := range util {
		if u > 5 {
			t.Errorf("server CPU %v%% in bucket %d, want < 5%%", u, i)
		}
	}
}

func TestBotnetConstruction(t *testing.T) {
	w := newWorld(t, serversim.Config{Defense: sweep.DefenseNone})
	bn := w.fleet(t, MacroConfig{
		Sources:       10,
		BaseAddr:      [4]byte{10, 0, 3, 1},
		Attack:        sweep.AttackSYNFlood,
		PerSourceRate: 100,
		StopAt:        10 * time.Second,
		Seed:          7,
	})
	if bn.Size() != 10 || !bn.Contains([4]byte{10, 0, 3, 10}) || bn.Contains([4]byte{10, 0, 3, 11}) {
		t.Fatalf("population of %d does not hold exactly 10.0.3.1–10", bn.Size())
	}
	w.eng.Run(5 * time.Second)
	// Aggregate ≈ 1000 pps.
	total := bn.TotalSent(time.Second, 4*time.Second)
	if total < 2500 || total > 3500 {
		t.Errorf("TotalSent over 3 s = %v, want ≈ 3000", total)
	}
	rates := bn.SentRate(5 * time.Second)
	if len(rates) == 0 {
		t.Fatal("no rate series")
	}
	if _, err := NewMacroFleet(w.net, MacroConfig{Sources: 0}); err == nil {
		t.Error("NewMacroFleet(0) succeeded")
	}
}

func TestBotnetMeanCPU(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:         sweep.DefensePuzzles,
		Backlog:         2,
		AlwaysChallenge: true,
		PuzzleParams:    puzzle.Params{K: 2, M: 17, L: 32},
		Workers:         -1,
	})
	bn := w.fleet(t, MacroConfig{
		Sources: 3, BaseAddr: [4]byte{10, 0, 4, 1},
		Attack: sweep.AttackConnFlood, PerSourceRate: 100,
		Solves: true,
		StopAt: 20 * time.Second, Seed: 8,
	})
	w.eng.Run(10 * time.Second)
	util := bn.MeanCPUUtilisation(10 * time.Second)
	var peak float64
	for _, u := range util {
		if u > peak {
			peak = u
		}
	}
	// Solving bots saturate their CPUs (Fig. 9's attacker spike).
	if peak < 50 {
		t.Errorf("peak botnet CPU = %v%%, want high under solving load", peak)
	}
}

func TestReplayFloodBoundedToOneSlot(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:         sweep.DefensePuzzles,
		Backlog:         4,
		AcceptBacklog:   64,
		Workers:         -1,
		AlwaysChallenge: true,
		PuzzleParams:    puzzle.Params{K: 2, M: 17, L: 32},
		PuzzleMaxAge:    10 * time.Second,
	})
	bot := w.fleet(t, MacroConfig{Attack: sweep.AttackReplayFlood, PerSourceRate: 200, Solves: true,
		Seed: 9, StopAt: 60 * time.Second})
	w.eng.Run(30 * time.Second)

	m := w.server.Metrics()
	// One legitimate solve captured and established exactly once; every
	// replay is either absorbed by the live connection or blocked.
	established := m.EstablishedAgg.SumRange(0, 30*time.Second)
	if established != 1 {
		t.Errorf("established = %v, want 1 (replay must not multiply slots)", established)
	}
	if w.server.AcceptLen() > 1 {
		t.Errorf("AcceptLen = %d, want ≤ 1", w.server.AcceptLen())
	}
	if bot.Metrics().Sent.Sum() < 1000 {
		t.Errorf("bot sent %v packets, want thousands of replays", bot.Metrics().Sent.Sum())
	}
}

func TestReplayExpiresWithWindow(t *testing.T) {
	w := newWorld(t, serversim.Config{
		Defense:         sweep.DefensePuzzles,
		Backlog:         4,
		AcceptBacklog:   64,
		AlwaysChallenge: true,
		PuzzleParams:    puzzle.Params{K: 2, M: 17, L: 32},
		PuzzleMaxAge:    5 * time.Second,
	})
	w.fleet(t, MacroConfig{Attack: sweep.AttackReplayFlood, PerSourceRate: 100, Solves: true,
		Seed: 10, StopAt: 60 * time.Second})
	w.eng.Run(40 * time.Second)
	m := w.server.Metrics()
	// With default workers the original connection is served and closed;
	// late replays carry an expired timestamp and are rejected as invalid.
	if m.SolutionInvalid == 0 {
		t.Error("no expired replays rejected")
	}
	// The replayed flow can be re-accepted only while the window was
	// open: total establishments stay tiny relative to ~3500 replays.
	if got := m.Established.Sum(); got > 10 {
		t.Errorf("Established = %v, want ≤ 10", got)
	}
}
