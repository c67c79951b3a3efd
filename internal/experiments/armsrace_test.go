package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/attack"
	"github.com/tcppuzzles/tcppuzzles/game"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

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

// TestArmsRaceDriver checks the arms race's series schema: its one cell
// carries a share series per arm of the adaptive flood. Its claim and
// its table are TestClaims'.
func TestArmsRaceDriver(t *testing.T) {
	results := runExp(t, "armsrace", TinyScale())
	if len(results) != 1 {
		t.Fatalf("cells = %d, want 1", len(results))
	}
	shareSeries := 0
	for _, s := range results[0].Series {
		if strings.HasPrefix(s.Name, "share_") {
			shareSeries++
		}
	}
	if shareSeries != 3 {
		t.Errorf("%d share series, want 3", shareSeries)
	}
}
