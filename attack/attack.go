// Package attack is the flood-strategy plugin API: the attacker half of
// the open registry behind the paper's comparison surface. A Strategy
// drives one bot through three hooks — Tick fires one attack action at the
// configured rate, OnSynAck reacts to a SYN-ACK matching one of the bot's
// own handshakes, OnSolved to the bot's CPU finishing a solve the strategy
// queued — against a narrow BotCtx facade over the bot simulator
// (deterministic RNG, CPU model, handshake bookkeeping, send primitives
// with attack-rate accounting).
//
// The paper's four flood behaviours — spoofed SYN floods, connection
// floods, solution floods, and replay floods — are ordinary plugins here,
// registered under the sweep.Attack names the DOE layer sweeps, and new
// behaviours (see pulseflood.go) register the same way without touching
// the simulator core. As in package defense, a plugin is its
// registration: an Info and a Factory that cannot fail. Cache identity
// follows the same rule as package defense: the attack name is part of
// the canonical Scenario.
package attack

import (
	"math/rand"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/registry"
	"github.com/tcppuzzles/tcppuzzles/internal/stats"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// Metrics collects bot-side measurements, shared between the bot core and
// its strategy.
type Metrics struct {
	// Sent counts attack packets per bucket — the "measured attack rate"
	// of Figs. 13/14 once CPU limiting is applied.
	Sent *stats.Series
	// AcksSent counts handshake completions attempted.
	AcksSent *stats.Series
	// BelievedEstablished counts connections the bot considers open.
	BelievedEstablished uint64
	// SolvesCompleted counts challenges solved.
	SolvesCompleted uint64
	// ChallengesDiscarded counts challenges dropped due to CPU backlog.
	ChallengesDiscarded uint64
	// RSTsReceived counts deception reveals.
	RSTsReceived uint64
}

// NewMetrics returns empty Metrics with the given bucket width.
func NewMetrics(bucket time.Duration) *Metrics {
	return &Metrics{
		Sent:     stats.NewSeries(bucket),
		AcksSent: stats.NewSeries(bucket),
	}
}

// BotCtx is the narrow facade a Strategy sees of one attacking machine.
//
// For plugin authors: a BotCtx is only valid during the hook call it was
// passed to, and it offers no general timer. Deferred work has one shape —
// a solve on the bot's CPU — and goes through Solve, which keeps what it
// needs as a plain record and calls the strategy's OnSolved hook with it
// later. Strategies therefore hold no closures over a BotCtx; anything
// else a completion step needs lives in the strategy's own fields.
type BotCtx interface {
	// Now is the bot's event-engine clock.
	Now() time.Duration
	// Rand is the bot's deterministic RNG.
	Rand() *rand.Rand

	// Addr is the bot's real address; ServerAddr/ServerPort locate the
	// victim.
	Addr() [4]byte
	ServerAddr() [4]byte
	ServerPort() uint16
	// AttackWindow is the configured [start, stop) interval.
	AttackWindow() (start, stop time.Duration)
	// Solves reports whether the bot runs the patched kernel and genuinely
	// solves challenges.
	Solves() bool
	// MaxSolveBacklog is the "smart" solver's freshness bound (zero =
	// greedy).
	MaxSolveBacklog() time.Duration

	// NextISN mints the next client initial sequence number.
	NextISN() uint32
	// NextPort allocates the next ephemeral source port.
	NextPort() uint16
	// ExpectSynAck registers an in-flight handshake so the matching
	// SYN-ACK is routed back to the strategy's OnSynAck.
	ExpectSynAck(port uint16, isn uint32)

	// EmitAttack accounts one attack packet (Sent) and transmits it
	// through the bot's own uplink, whatever source address seg carries:
	// a forged Src is the spoofing primitive.
	EmitAttack(seg tcpkit.Segment)
	// SendHandshakeAck completes (or pretends to complete) a handshake:
	// accounts AcksSent and BelievedEstablished, then transmits the ACK.
	SendHandshakeAck(port uint16, isn, serverISN uint32, opts []byte)

	// Solve queues the brute force of sa's challenge, costing hashes, on
	// the bot's CPU model — a FIFO server, so solves complete in the order
	// queued — and hands sa to the strategy's OnSolved when the CPU gets
	// there. sa.Challenge must have passed tcpopt.ParseChallenge.
	Solve(hashes float64, sa SynAck)
	// CPUBacklog reports how far into the future the CPU is committed.
	CPUBacklog() time.Duration

	// Metrics is the bot's measurement state.
	Metrics() *Metrics
}

// SynAck describes a SYN-ACK that matched one of the bot's own in-flight
// handshakes (registered via ExpectSynAck).
type SynAck struct {
	// Port is the bot-local source port of the handshake.
	Port uint16
	// ISN is the bot's client ISN; ServerISN the server's.
	ISN       uint32
	ServerISN uint32
	// Challenge is the puzzle challenge option when Challenged.
	Challenge  tcpopt.Option
	Challenged bool
}

// Info identifies a registered attack.
type Info struct {
	// Name is the sweep.Attack key the plugin registers under.
	Name sweep.Attack
	// Summary is a one-line description for listings.
	Summary string
}

// Strategy is one bot behaviour. Implementations must be deterministic:
// everything they do may derive only from the BotCtx and their own state.
type Strategy interface {
	// Tick fires one attack action; the bot core calls it at the
	// configured rate over the attack window.
	Tick(ctx BotCtx)
	// OnSynAck reacts to a SYN-ACK matching a registered handshake.
	OnSynAck(ctx BotCtx, sa SynAck)
	// OnSolved is the completion step of ctx.Solve(hashes, sa): the bot's
	// CPU has finished that solve.
	OnSolved(ctx BotCtx, sa SynAck)
}

// Factory builds a strategy instance for one bot. It cannot fail.
type Factory func(ctx BotCtx) Strategy

var plugins = registry.New[sweep.Attack, Info, BotCtx, Strategy]("attack")

// Register adds an attack plugin to the registry under info.Name. It
// panics on an empty name, a nil factory, or a duplicate registration.
func Register(info Info, factory Factory) { plugins.Register(info.Name, info, factory) }

// Lookup returns the registration of a name: its info and factory.
// Unknown names error with the registered alternatives.
func Lookup(name sweep.Attack) (Info, Factory, error) { return plugins.Lookup(name) }

// Infos lists every registered attack, sorted by name.
func Infos() []Info { return plugins.Infos() }
