package experiments

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// The canonical configuration types live in the public sweep package (the
// DOE layer below this one); the aliases keep every driver, test, and the
// sim façade on literally the same types. Defense and Attack names resolve
// directly in the strategy registries (packages defense and attack) — the
// simulators consume the sweep strings as-is, so there is no translation
// layer between the DOE grid and the simulator cores.
type (
	// Scenario is the canonical description of one deployment under
	// attack. See sweep.Scenario.
	Scenario = sweep.Scenario
	// Scale rescales a scenario's deployment. See sweep.Scale.
	Scale = sweep.Scale
	// Exec carries the execution options (runner width, sinks, cache,
	// debug). See sweep.Exec.
	Exec = sweep.Exec
	// Defense selects the server protection.
	Defense = sweep.Defense
	// Attack selects the botnet behaviour.
	Attack = sweep.Attack
)

// Re-exported enum values and sentinels.
const (
	DefenseNone      = sweep.DefenseNone
	DefenseCookies   = sweep.DefenseCookies
	DefenseSYNCache  = sweep.DefenseSYNCache
	DefensePuzzles   = sweep.DefensePuzzles
	DefenseHybrid    = sweep.DefenseHybrid
	DefenseRateLimit = sweep.DefenseRateLimit

	AttackSYNFlood      = sweep.AttackSYNFlood
	AttackConnFlood     = sweep.AttackConnFlood
	AttackSolutionFlood = sweep.AttackSolutionFlood
	AttackReplayFlood   = sweep.AttackReplayFlood
	AttackPulseFlood    = sweep.AttackPulseFlood
	AttackAdaptiveFlood = sweep.AttackAdaptiveFlood

	// NoBotnet as a Scenario.BotCount disables the botnet entirely.
	NoBotnet = sweep.NoBotnet
)

// PaperScale is the full-size evaluation of §6.
func PaperScale() Scale {
	return Scale{
		Duration: 600 * time.Second, AttackStart: 120 * time.Second, AttackStop: 480 * time.Second,
		NumClients: 15, ClientRate: 20, BotCount: 10, PerBotRate: 500,
		Backlog: 4096, AcceptBacklog: 4096, Workers: 256, Seed: 1,
	}
}

// QuickScale is a reduced deployment for benchmarks and tests: the same
// shape at ~1/10 the event count.
func QuickScale() Scale {
	return Scale{
		Duration: 120 * time.Second, AttackStart: 30 * time.Second, AttackStop: 90 * time.Second,
		NumClients: 6, ClientRate: 10, BotCount: 5, PerBotRate: 120,
		Backlog: 512, AcceptBacklog: 512, Workers: 64, Seed: 1,
	}
}

// TinyScale is the smallest deployment that still preserves the attack
// structure (the unit tests' scale). It backs `tcpz-exp -scale tiny` and
// the CI cache round-trip, where wall-clock matters more than fidelity.
func TinyScale() Scale {
	return Scale{
		Duration: 60 * time.Second, AttackStart: 15 * time.Second, AttackStop: 45 * time.Second,
		NumClients: 4, ClientRate: 8, BotCount: 4, PerBotRate: 80,
		Backlog: 128, AcceptBacklog: 128, Workers: 48, Seed: 42,
	}
}
