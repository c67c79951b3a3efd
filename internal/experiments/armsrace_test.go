package experiments

import (
	"math"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/attack"
	"github.com/tcppuzzles/tcppuzzles/defense"
	"github.com/tcppuzzles/tcppuzzles/game"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestAdaptiveDefenseTracksStackelberg pins the defender's half of the
// arms race to the static game solver: a constant-rate SYN flood of known
// aggregate rate must drive the adaptive controller to the same (K, M)
// the Stackelberg solver picks offline for that rate, within the bit
// quantisation of ParamsFor and the EWMA's estimation error — and the
// difficulty must decay back to the no-attack optimum after the flood.
func TestAdaptiveDefenseTracksStackelberg(t *testing.T) {
	sc := Scenario{
		Label:    "stackelberg-track",
		Duration: 70 * time.Second, AttackStart: 10 * time.Second, AttackStop: 50 * time.Second,
		NumClients: 4, ClientRate: 8, ClientsSolve: true,
		Defense: DefenseAdaptivePuzzles, Attack: AttackSYNFlood,
		BotCount: 4, PerBotRate: 80,
		Backlog: 128, AcceptBacklog: 128, Workers: 48,
		Seed: 11,
	}
	run, err := RunFlood(sc)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	ap, ok := run.Server.Defense().(*defense.AdaptivePuzzles)
	if !ok {
		t.Fatalf("defense is %T, want *defense.AdaptivePuzzles", run.Server.Defense())
	}
	trace := ap.Trace()
	if len(trace) == 0 {
		t.Fatal("controller recorded no ticks")
	}

	// Before the flood the controller must sit at the no-attack optimum.
	base := run.Cfg.Params
	idle, err := defense.AdaptiveTarget(0, base)
	if err != nil {
		t.Fatalf("AdaptiveTarget(0): %v", err)
	}
	if trace[0].Params != idle {
		t.Errorf("first tick deployed %v, want no-attack optimum %v", trace[0].Params, idle)
	}

	// At the end of the attack window the rate estimate must have locked
	// onto the true aggregate flood rate...
	trueRate := float64(run.Cfg.BotCount) * run.Cfg.PerBotRate
	end, ok := ap.TraceAt(run.Cfg.AttackStop)
	if !ok {
		t.Fatal("no trace sample inside the attack window")
	}
	if end.AttackRate < 0.6*trueRate || end.AttackRate > 1.5*trueRate {
		t.Errorf("attack-rate estimate %v, want within [0.6, 1.5]×%v", end.AttackRate, trueRate)
	}

	// ...and the deployed work level must match the solver's ℓ* for that
	// rate: ParamsFor rounds up to whole bits (factor < 2), and the
	// estimate tolerance above adds at most another ~quarter bit, so the
	// converged difficulty lands in [0.75·ℓ*, 2.5·ℓ*].
	lPred, err := defense.AdaptiveGame(trueRate).OptimalDifficulty()
	if err != nil {
		t.Fatalf("OptimalDifficulty(%v): %v", trueRate, err)
	}
	lFinal := end.Params.ExpectedSolveHashes()
	if lFinal < 0.75*lPred || lFinal > 2.5*lPred {
		t.Errorf("converged work %v hashes vs Stackelberg ℓ* %v (gap %.2f bits), want within [0.75ℓ*, 2.5ℓ*]",
			lFinal, lPred, math.Abs(math.Log2(lFinal/lPred)))
	}
	// The flood must actually have moved the difficulty off the idle point.
	if end.Params == idle {
		t.Errorf("difficulty never rose under a %v SYN/s flood (stuck at %v)", trueRate, idle)
	}

	// Internal consistency: what is deployed is exactly the controller's
	// own best response to its current estimate — the plugin is the solver,
	// not an approximation of it.
	if want, err := defense.AdaptiveTarget(end.AttackRate, base); err != nil {
		t.Fatalf("AdaptiveTarget(%v): %v", end.AttackRate, err)
	} else if end.Params != want {
		t.Errorf("deployed %v, want best response %v to own estimate %v", end.Params, want, end.AttackRate)
	}

	// After the flood stops the estimate decays and the difficulty returns
	// to the no-attack optimum (20 s of 0.25-EWMA decay ≈ 3 orders of
	// magnitude, far below the lowest difficulty step).
	last := trace[len(trace)-1]
	if last.Params != idle {
		t.Errorf("post-attack difficulty %v, want decay back to %v", last.Params, idle)
	}
	if last.AttackRate > 0.05*trueRate {
		t.Errorf("post-attack estimate %v has not decayed (true rate %v)", last.AttackRate, trueRate)
	}
}

// TestAdaptiveAttackReplicatorFixedPoint pins the attacker's half: on a
// rigged scenario where exactly one arm earns feedback, every bot's
// replicator must concentrate its budget on that arm, up to the
// exploration floor; and on a rock-paper-scissors payoff fixture the same
// dynamics must cycle forever instead of converging.
func TestAdaptiveAttackReplicatorFixedPoint(t *testing.T) {
	t.Run("dominant arm absorbs the budget", func(t *testing.T) {
		// Against cookies nothing is ever challenged, spoofed SYNs get no
		// reply, and completed handshakes are full wins: the conn-flood arm
		// is the unique earner, so shares must converge near its fixed
		// point 1 − (arms−1)·floor.
		sc := Scenario{
			Label:    "replicator-rigged",
			Duration: 60 * time.Second, AttackStart: 5 * time.Second, AttackStop: 55 * time.Second,
			NumClients: 3, ClientRate: 8, ClientsSolve: true,
			Defense: DefenseCookies, Attack: AttackAdaptiveFlood,
			BotCount: 4, PerBotRate: 80, BotsSolve: true,
			Backlog: 256, AcceptBacklog: 256, Workers: 48,
			Seed: 13,
		}
		run, err := RunFlood(sc)
		if err != nil {
			t.Fatalf("RunFlood: %v", err)
		}
		for i, s := range run.Macro.Strategies() {
			af, ok := s.(*attack.AdaptiveFlood)
			if !ok {
				t.Fatalf("bot %d strategy is %T, want *attack.AdaptiveFlood", i, s)
			}
			if epochs := len(af.ShareTrace()); epochs < 10 {
				t.Fatalf("bot %d closed only %d replicator epochs — run too short to converge", i, epochs)
			}
			names, shares := af.ArmNames(), af.Shares()
			conn := -1
			for a, n := range names {
				if n == sweep.AttackConnFlood {
					conn = a
				}
			}
			if conn < 0 {
				t.Fatalf("bot %d arms %v missing connflood", i, names)
			}
			for a := range shares {
				if a == conn {
					if shares[a] < 0.85 {
						t.Errorf("bot %d: conn-flood share %v, want ≥ 0.85 (fixed point %v)",
							i, shares[a], 1-float64(len(names)-1)*attack.AdaptiveExplorationFloor)
					}
				} else if shares[a] > 0.10 {
					t.Errorf("bot %d: starved arm %v holds share %v, want near floor %v",
						i, names[a], shares[a], attack.AdaptiveExplorationFloor)
				}
			}
		}
	})

	t.Run("rock-paper-scissors cycles", func(t *testing.T) {
		// Replicator dynamics on the RPS payoff matrix have no stable
		// interior attractor: the share vector must keep orbiting — leader
		// changes never stop and step sizes never vanish. This is the
		// negative control for the convergence claims above: the learner
		// concentrates only when a dominant arm exists.
		payoff := [3][3]float64{{0, -1, 1}, {1, 0, -1}, {-1, 1, 0}}
		shares := []float64{0.4, 0.3, 0.3}
		const steps, tail = 400, 100
		leadChanges, lastLead := 0, -1
		led := [3]bool{}
		minTailDelta := math.Inf(1)
		for s := 0; s < steps; s++ {
			p := make([]float64, 3)
			for i := range p {
				for j := range shares {
					p[i] += payoff[i][j] * shares[j]
				}
			}
			next, err := game.ReplicatorStep(shares, p, 0.02)
			if err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
			lead, delta := 0, 0.0
			for i := range next {
				if next[i] > next[lead] {
					lead = i
				}
				if d := math.Abs(next[i] - shares[i]); d > delta {
					delta = d
				}
			}
			if lead != lastLead {
				if lastLead >= 0 {
					leadChanges++
				}
				lastLead = lead
			}
			led[lead] = true
			if s >= steps-tail && delta < minTailDelta {
				minTailDelta = delta
			}
			shares = next
		}
		if leadChanges < 10 {
			t.Errorf("only %d lead changes in %d steps — RPS dynamics should cycle", leadChanges, steps)
		}
		if !led[0] || !led[1] || !led[2] {
			t.Errorf("not every arm led at some point: %v", led)
		}
		if minTailDelta < 0.01 {
			t.Errorf("step size fell to %v in the last %d steps — dynamics converged on a non-convergent game",
				minTailDelta, tail)
		}
	})
}

// TestArmsRaceDriver smoke-runs the experiment end to end: all three
// cells produce their convergence metrics and trajectory series, and the
// table renders.
func TestArmsRaceDriver(t *testing.T) {
	results := runExp(t, "armsrace", TinyScale())
	if len(results) != 3 {
		t.Fatalf("cells = %d, want 3", len(results))
	}
	gap := func(label, name string) (float64, bool) {
		for _, r := range results {
			if r.Scenario.Label == label {
				return r.Lookup(name)
			}
		}
		t.Fatalf("no cell %q", label)
		return 0, false
	}

	// Defender convergence where an adaptive defender plays.
	for _, label := range []string{"adaptive-defense", "adaptive-both"} {
		if g, ok := gap(label, "defender_gap_bits"); !ok || g > 3 {
			t.Errorf("%s: defender gap %v bits (present=%v), want ≤ 3", label, g, ok)
		}
	}
	if g, ok := gap("adaptive-attack", "defender_gap_bits"); ok {
		t.Errorf("static-defender cell reports a defender gap: %v", g)
	}

	// Attacker convergence where an adaptive attacker plays.
	for _, label := range []string{"adaptive-attack", "adaptive-both"} {
		if g, ok := gap(label, "attacker_gap"); !ok || g > 0.5 {
			t.Errorf("%s: attacker gap %v (present=%v), want ≤ 0.5", label, g, ok)
		}
	}
	if g, ok := gap("adaptive-defense", "attacker_gap"); ok {
		t.Errorf("static-attacker cell reports an attacker gap: %v", g)
	}

	// Series schema: m-trajectory for adaptive defenders, one share series
	// per arm for adaptive attackers.
	for _, r := range results {
		adaptiveDef := r.Scenario.Defense == DefenseAdaptivePuzzles
		adaptiveAtk := r.Scenario.Attack == AttackAdaptiveFlood
		if got := r.SeriesValues("difficulty_m") != nil; got != adaptiveDef {
			t.Errorf("%s: difficulty_m series present=%v, want %v", r.Scenario.Label, got, adaptiveDef)
		}
		shareSeries := 0
		for _, s := range r.Series {
			if len(s.Name) > 6 && s.Name[:6] == "share_" {
				shareSeries++
			}
		}
		if adaptiveAtk && shareSeries != 3 {
			t.Errorf("%s: %d share series, want 3", r.Scenario.Label, shareSeries)
		}
		if !adaptiveAtk && shareSeries != 0 {
			t.Errorf("%s: unexpected share series", r.Scenario.Label)
		}
	}

	tbl := armsRaceTable(results)
	if len(tbl.Rows) != 3 || len(tbl.String()) == 0 {
		t.Errorf("table did not render: %d rows", len(tbl.Rows))
	}
}
