package sweep

import (
	"io"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// Defense selects the server protection. The empty string selects the
// paper's default (puzzles); every named variant — including DefenseNone —
// is always honoured, so no configuration is unreachable by defaulting.
type Defense string

// Supported defenses. The first four are the paper's comparison set
// (§5, §6.2); the rest are registered plugins built purely on the
// defense-strategy API (see package defense).
const (
	DefenseNone     Defense = "none"
	DefenseCookies  Defense = "cookies"
	DefenseSYNCache Defense = "syncache"
	DefensePuzzles  Defense = "puzzles"
	// DefenseHybrid serves SYN cookies under listen-queue pressure and
	// escalates to client puzzles once the accept queue comes under
	// attack — the gap cookies cannot cover (§6.2).
	DefenseHybrid Defense = "hybrid"
	// DefenseRateLimit is a probabilistic RED-style SYN admission
	// baseline: above the high watermark each SYN is dropped with a
	// probability that rises linearly with listen-queue occupancy.
	DefenseRateLimit Defense = "ratelimit"
	// DefenseSteppedPuzzles is the §7 closed-loop step controller: while
	// the overload latch holds and the accept queue stays above its
	// high-water mark, m rises one bit per 5 s (up to 18), then decays back
	// to the configured baseline after release.
	DefenseSteppedPuzzles Defense = "stepped-puzzles"
)

// KnownDefenses lists every Defense value this module ships a plugin for,
// in canonical order. The registry-completeness test asserts each resolves
// to a registered plugin (and vice versa).
func KnownDefenses() []Defense {
	return []Defense{
		DefenseNone, DefenseCookies, DefenseSYNCache, DefensePuzzles,
		DefenseHybrid, DefenseRateLimit, DefenseSteppedPuzzles,
	}
}

// Attack selects the botnet behaviour. The empty string selects the
// paper's default (a connection flood).
type Attack string

// Supported attacks. The first four are the paper's flood behaviours; the
// rest are registered plugins built purely on the attack-strategy API (see
// package attack).
const (
	AttackSYNFlood      Attack = "synflood"
	AttackConnFlood     Attack = "connflood"
	AttackSolutionFlood Attack = "solutionflood"
	AttackReplayFlood   Attack = "replayflood"
	// AttackPulseFlood is a spoofed SYN flood fired in on/off bursts,
	// probing the challenge controller's engage/release latch instead of
	// applying constant pressure.
	AttackPulseFlood Attack = "pulseflood"
	// AttackAdaptiveFlood reallocates each bot's budget across the basic
	// flood behaviours via per-tick replicator dynamics driven by the
	// bot's own handshake feedback.
	AttackAdaptiveFlood Attack = "adaptive-flood"
)

// KnownAttacks lists every Attack value this module ships a plugin for, in
// canonical order. The registry-completeness test asserts each resolves to
// a registered plugin (and vice versa).
func KnownAttacks() []Attack {
	return []Attack{
		AttackSYNFlood, AttackConnFlood, AttackSolutionFlood,
		AttackReplayFlood, AttackPulseFlood, AttackAdaptiveFlood,
	}
}

// NoBotnet as a Scenario.BotCount disables the botnet entirely. (Zero
// means "default", so opting out needs an explicit sentinel.)
const NoBotnet = -1

// Scenario is the canonical description of one deployment under attack:
// one server, a set of clients requesting text, and a botnet. It is the
// single config type shared by the public sim façade, every figure/table
// driver, the benchmarks, and the runner.
//
// The zero value of every field selects the paper's §6 defaults (see
// Defaults). Fields where zero is meaningful use explicit sentinels:
// BotCount: NoBotnet runs without a botnet, Workers: -1 disables the
// application worker pool, and the Defense/Attack enums are strings so
// "unset" ("") is distinct from every real variant.
type Scenario struct {
	// Label names the run in result tables and sink output.
	Label string

	// Duration is the experiment length; the attack runs over
	// [AttackStart, AttackStop).
	Duration    time.Duration
	AttackStart time.Duration
	AttackStop  time.Duration
	// Bucket is the metric bucket width.
	Bucket time.Duration

	// NumClients client hosts each issue ClientRate requests/second for
	// RequestBytes of text.
	NumClients   int
	ClientRate   float64
	RequestBytes int
	// ClientsSolve selects patched client kernels.
	ClientsSolve bool

	// Defense and Params configure the server protection.
	Defense         Defense
	Params          puzzle.Params
	AlwaysChallenge bool
	// Workers sizes the application pool (-1 disables it); Backlog and
	// AcceptBacklog size the server queues.
	Workers       int
	Backlog       int
	AcceptBacklog int

	// Attack, BotCount, PerBotRate and BotsSolve configure the botnet.
	// BotCount is the population size, up to netsim.MaxSourceSlots;
	// BotCount: NoBotnet runs the deployment without attackers.
	Attack     Attack
	BotCount   int
	PerBotRate float64
	BotsSolve  bool
	// BotMaxSolveBacklog makes solving bots "smart": they discard stale
	// challenges instead of queueing greedily (zero = greedy default).
	BotMaxSolveBacklog time.Duration
	// MacroSources, when positive, overrides BotCount as the population
	// size. Zero, the default, keeps every pre-existing cache hash via
	// omitempty.
	//
	// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
	// Set BotCount instead: it runs the same population.
	MacroSources int `json:",omitempty"`

	// Seed drives all randomness; equal seeds reproduce runs bit-for-bit.
	// Every scenario builds its own RNG from this seed, so grids of
	// scenarios are independent and safe to run in parallel.
	Seed int64

	// Shards is read by nothing: every scenario runs on one event engine.
	//
	// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
	Shards int `json:"-"`
}

// A canonical (post-Defaults) Scenario has three identities, each a
// projection below that clears the fields it ignores: two scenarios share
// one exactly when their projections are ==, so a new field enters all
// three until a projection clears it. The cache key is the encoding's.

// cell is the grid-cell identity Expand dedupes by: all of sc but the
// unread Shards.
func (sc Scenario) cell() Scenario {
	sc.Shards = 0
	return sc
}

// SimInputs is what a simulation can read of sc: all of it but the
// reported Label and the unread Shards.
func (sc Scenario) SimInputs() Scenario {
	sc.Label, sc.Shards = "", 0
	return sc
}

// replicate is the replicate group FoldSeeds folds sc into: all of it but
// the Seed, the unread Shards and the "seed=…" label parts a Seeds axis
// appends.
func (sc Scenario) replicate() Scenario {
	sc.Label, sc.Seed, sc.Shards = stripSeedLabel(sc.Label), 0, 0
	return sc
}

// Defaults returns a copy with the paper's §6 defaults applied to every
// unset field: 15 clients at 20 req/s, a 10-bot botnet at 500 pps each,
// attack over [120 s, 480 s) of a 600 s run, puzzles at the Nash
// difficulty (k = 2, m = 17, l = 32; each Params field defaults
// independently so grid axes may set k and m separately). Explicit
// sentinels (NoBotnet, Workers: -1) pass through. The canonical form of a
// scenario — the one hashed by the result cache — is its Defaults().
func (sc Scenario) Defaults() Scenario {
	if sc.Duration == 0 {
		sc.Duration = 600 * time.Second
	}
	if sc.AttackStart == 0 {
		sc.AttackStart = 120 * time.Second
	}
	if sc.AttackStop == 0 {
		sc.AttackStop = 480 * time.Second
	}
	if sc.Bucket == 0 {
		sc.Bucket = time.Second
	}
	if sc.NumClients == 0 {
		sc.NumClients = 15
	}
	if sc.ClientRate == 0 {
		sc.ClientRate = 20
	}
	if sc.RequestBytes == 0 {
		sc.RequestBytes = 100_000
	}
	if sc.Defense == "" {
		sc.Defense = DefensePuzzles
	}
	if sc.Params.K == 0 {
		sc.Params.K = 2
	}
	if sc.Params.M == 0 {
		sc.Params.M = 17
	}
	if sc.Params.L == 0 {
		sc.Params.L = 32
	}
	if sc.Attack == "" {
		sc.Attack = AttackConnFlood
	}
	if sc.BotCount == 0 {
		sc.BotCount = 10
	}
	if sc.PerBotRate == 0 {
		sc.PerBotRate = 500
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc
}

// Scale overrides a Scenario's deployment size so the paper's full
// 600-second evaluation shrinks for tests and benchmarks while preserving
// structure. How the resized cells execute is Exec's business.
type Scale struct {
	// Duration, AttackStart, AttackStop override the timeline.
	Duration, AttackStart, AttackStop time.Duration
	// NumClients, ClientRate, BotCount, PerBotRate override the load.
	NumClients int
	ClientRate float64
	BotCount   int
	PerBotRate float64
	// Backlog and AcceptBacklog size the server queues; reduced runs must
	// shrink them with the attack rate so floods saturate them on the same
	// relative timescale as the paper's 5000 pps vs 4096 slots.
	Backlog       int
	AcceptBacklog int
	// Workers sizes the application pool; reduced runs shrink it so the
	// flood overwhelms the drain rate by the same factor as at full scale.
	Workers int
	// Seed overrides the seed when non-zero.
	Seed int64
}

// Exec carries the execution options shared by every driver: runner
// width, result sinks, the result cache and debug narration. None of them changes what a cell computes, only how and
// where it runs and is recorded.
type Exec struct {
	// Parallelism is the runner worker count used when a driver fans a
	// grid of scenarios out (0 = GOMAXPROCS). It never affects results,
	// only wall-clock time.
	Parallelism int
	// Sinks receive every completed cell's Result, streamed in grid order
	// as runs land. Nil runs without emission.
	Sinks []Sink
	// Cache short-circuits cells whose canonical scenario hash is already
	// stored. Nil disables caching.
	Cache *Cache
	// Debug, when non-nil, receives execution observability lines as
	// cells complete: per-cell event and event-queue counters and one
	// runner line per plan (pool width, jobs claimed, peak heap). Purely
	// observational — never written to sinks or cache.
	Debug io.Writer
}

// Apply overrides the scenario's deployment-size knobs with the scale's.
// Explicit "off" sentinels survive rescaling: a Scenario that opted out
// of the botnet (BotCount: NoBotnet) or the worker pool (Workers: -1)
// keeps that choice at every scale.
func (s Scale) Apply(sc Scenario) Scenario {
	sc.Duration = s.Duration
	sc.AttackStart = s.AttackStart
	sc.AttackStop = s.AttackStop
	sc.NumClients = s.NumClients
	sc.ClientRate = s.ClientRate
	if sc.BotCount != NoBotnet {
		sc.BotCount = s.BotCount
		sc.PerBotRate = s.PerBotRate
	}
	sc.Backlog = s.Backlog
	sc.AcceptBacklog = s.AcceptBacklog
	if sc.Workers >= 0 {
		sc.Workers = s.Workers
	}
	if s.Seed != 0 {
		sc.Seed = s.Seed
	}
	return sc
}
