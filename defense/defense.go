// Package defense is the server-protection plugin API: the open registry
// behind the paper's comparison surface. A Defense is a strategy object
// with handshake lifecycle hooks — OnSYN for connection requests, OnACK
// for bare ACKs that matched no server state, OnTick for periodic work —
// driven by the protected-server simulator through a narrow ServerCtx
// facade over its internals (listen/accept queues, metrics, crypto-cost
// charging, segment send/RST, and the event-engine clock).
//
// The four defenses evaluated in the paper — no protection, SYN cookies,
// a SYN cache, and TCP client puzzles (§5, §6.2) — are ordinary plugins in
// this package, registered under the sweep.Defense names the DOE layer
// already sweeps, so `Defenses: [...]` grid axes, result-cache keys, and
// `tcpz-exp -list-defenses` all derive from one registry. New defenses
// register the same way (see hybrid.go and ratelimit.go for two built on
// nothing but this API) and become sweepable scenario coordinates without
// touching the simulator core. A plugin is its registration: Register
// takes its Info, the one statement of its identity, and a Factory that
// cannot fail. Because ServerCtx speaks the module's
// internal vocabulary (tcpkit segments, the srvmetrics struct), strategy
// implementations live inside this module — "open" means additive
// registration with zero simulator-core edits, not out-of-module
// compilation.
//
// Puzzle parameters: a defense that issues client puzzles registers with
// Info.Puzzles (puzzles, hybrid, adaptive-puzzles, stepped-puzzles). Only
// such a defense may read ServerCtx.PuzzleParams or ServerCtx.Puzzles;
// the server panics if any other does. So a run under any other defense
// cannot depend on Scenario.Params, and the experiment executor simulates
// sweep cells that differ only in Params under it once. The conformance
// suite's params-independence subtest checks the whole run.
//
// Cache identity: a cell's result-cache key covers its canonical Scenario,
// defense name included, and the output ledger's digest (see sweep.Hash).
// A plugin needs nothing else: a behaviour change that moves ledger output
// re-keys every cell when the ledger is re-blessed. A plugin that no
// ledger experiment runs is not covered that way.
package defense

import (
	"math/rand"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/pzengine"
	"github.com/tcppuzzles/tcppuzzles/internal/registry"
	"github.com/tcppuzzles/tcppuzzles/internal/srvmetrics"
	"github.com/tcppuzzles/tcppuzzles/internal/syncache"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/syncookie"
)

// ServerCtx is the narrow facade a Defense sees of the protected server.
// Everything a strategy may do — inspect queue pressure, mint ISNs, send
// SYN-ACKs and RSTs, charge hash work to the server CPU, establish
// connections, account metrics — goes through it; nothing else of the
// simulator is reachable, which is what keeps strategies portable across
// simulator refactors.
type ServerCtx interface {
	// Now is the event-engine clock.
	Now() time.Duration
	// Rand is the server's deterministic RNG. Strategies that draw from it
	// share the stream with the server's worker-pool jitter; the paper
	// defenses never draw, preserving their exact pre-registry behaviour.
	Rand() *rand.Rand

	// Deployment knobs.
	Backlog() int
	SynAckTimeout() time.Duration
	// PuzzleParams is the configured difficulty. Only a defense
	// registered with Info.Puzzles may call it.
	PuzzleParams() puzzle.Params

	// Listen-queue (half-open) state.
	ListenLen() int
	ListenFull() bool
	// ListenHighWater is the overload watermark for the listen queue
	// (1/16 of capacity, minimum 1).
	ListenHighWater() int

	// Accept-queue (established, unaccepted) state.
	AcceptLen() int
	AcceptFull() bool
	// AcceptHighWater is the overload watermark for the accept queue.
	AcceptHighWater() int
	AcceptContains(peer tcpkit.PeerKey) bool

	// OverloadActive reports the §5 opportunistic controller: it latches
	// once either queue passes its high watermark and releases only after
	// both stay below the low watermark for a full release window (or
	// always fires under the AlwaysChallenge ablation).
	OverloadActive() bool
	// OverloadLatched reports whether that latch is currently held without
	// re-evaluating it: unlike OverloadActive it never engages, refreshes
	// or releases the latch, so periodic controllers may read it without
	// moving release times. It is false under AlwaysChallenge, which fires
	// without latching.
	OverloadLatched() bool

	// NextISN mints the next server initial sequence number.
	NextISN() uint32
	// NormalSYN runs the unprotected handshake path: allocate half-open
	// state and reply SYN-ACK, dropping the SYN (SYNsDropped) when the
	// backlog is exhausted.
	NormalSYN(syn tcpkit.Segment, mss uint16, wscale uint8)
	// SynAck builds and transmits a SYN-ACK for the given SYN; nil opts
	// selects the default MSS/WScale advertisement.
	SynAck(syn tcpkit.Segment, serverISN uint32, opts []byte)
	// SynAckChallenge transmits a SYN-ACK for the given SYN carrying ch in
	// a 0xfc challenge option, timestamp embedded. An error means ch does
	// not encode (difficulty misconfiguration) and nothing was sent.
	SynAckChallenge(syn tcpkit.Segment, serverISN uint32, ch puzzle.Challenge) error
	// SendRST signals that no connection exists.
	SendRST(seg tcpkit.Segment)
	// Establish records a completed handshake on the accept queue and
	// dispatches application workers.
	Establish(peer tcpkit.PeerKey, mss uint16, solvedPuzzle bool)
	// DeliverData processes a data-bearing segment on the peer's
	// established connection, if one exists (piggybacked requests).
	DeliverData(seg tcpkit.Segment)

	// ChargeHashes runs hash work on the server CPU model.
	ChargeHashes(n float64)
	// Jar is the server's SYN-cookie jar (stateless ISN encode/decode).
	Jar() *syncookie.Jar
	// Puzzles is the server's puzzle engine (issue/verify, retunable).
	// Only a defense registered with Info.Puzzles may call it.
	Puzzles() pzengine.Engine
	// SynCache is the server's bounded half-open overflow cache.
	SynCache() *syncache.Cache

	// Metrics is the shared measurement state.
	Metrics() *srvmetrics.Metrics
}

// Info identifies a registered defense.
type Info struct {
	// Name is the sweep.Defense key the plugin registers under — the same
	// string scenario grids sweep and sinks serialise.
	Name sweep.Defense
	// Summary is a one-line description for listings.
	Summary string
	// Puzzles marks a defense that issues client puzzles. Only such a
	// defense may call ServerCtx.PuzzleParams or ServerCtx.Puzzles; the
	// server panics on either call from any other. A run whose defense
	// issues no puzzles therefore cannot depend on the puzzle
	// parameters, and the executor simulates sweep cells that differ
	// only in them once.
	Puzzles bool
}

// Defense is one server-protection strategy. Implementations must be
// deterministic: everything they do may derive only from the ServerCtx and
// their own state, so runs reproduce bit-for-bit at any worker count.
type Defense interface {
	// OnSYN handles a connection request (after the server has counted it
	// and parsed its MSS/WScale options).
	OnSYN(ctx ServerCtx, syn tcpkit.Segment, mss uint16, wscale uint8)
	// OnACK handles a bare ACK that matched no established connection and
	// no listen-queue entry. Returning true consumes the segment; false
	// falls through to the server's default (RST on data-bearing ACKs).
	OnACK(ctx ServerCtx, ack tcpkit.Segment) bool
	// OnTick fires from the server's once-per-second sweep timer, for
	// strategies with periodic state (expiries, decaying counters).
	OnTick(ctx ServerCtx)
}

// Factory builds a defense instance for one server, during server
// construction. It cannot fail: the server has validated its
// configuration, puzzle parameters included, before any factory runs.
type Factory func(ctx ServerCtx) Defense

var plugins = registry.New[sweep.Defense, Info, ServerCtx, Defense]("defense")

// Register adds a defense plugin to the registry under info.Name. It
// panics on an empty name, a nil factory, or a duplicate registration —
// all programmer errors at init time.
func Register(info Info, factory Factory) { plugins.Register(info.Name, info, factory) }

// Lookup returns the registration of a name: its info and factory.
// Unknown names error with the registered alternatives.
func Lookup(name sweep.Defense) (Info, Factory, error) { return plugins.Lookup(name) }

// Infos lists every registered defense, sorted by name.
func Infos() []Info { return plugins.Infos() }
