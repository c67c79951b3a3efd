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
// touching the simulator core. Because ServerCtx speaks the module's
// internal vocabulary (tcpkit segments, the srvmetrics struct), strategy
// implementations live inside this module — "open" means additive
// registration with zero simulator-core edits, not out-of-module
// compilation.
//
// Cache identity: a cell's result-cache key covers its canonical Scenario,
// defense name included, and the output ledger's digest (see sweep.Hash).
// A plugin needs nothing else: a behaviour change that moves ledger output
// re-keys every cell when the ledger is re-blessed. A plugin that no
// ledger experiment runs is not covered that way.
package defense

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/pzengine"
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
	AcceptBacklog() int
	SynAckTimeout() time.Duration
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
}

// Defense is one server-protection strategy. Implementations must be
// deterministic: everything they do may derive only from the ServerCtx and
// their own state, so runs reproduce bit-for-bit at any worker count.
type Defense interface {
	// Describe returns the plugin's registration identity.
	Describe() Info
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

// Factory builds a defense instance for one server. It runs during server
// construction and should validate configuration (e.g. puzzle difficulty)
// before the simulation starts.
type Factory func(ctx ServerCtx) (Defense, error)

var (
	regMu    sync.RWMutex
	registry = map[sweep.Defense]registration{}
)

type registration struct {
	info    Info
	factory Factory
}

// Register adds a defense plugin to the registry under info.Name. It
// panics on an empty name, a nil factory, or a duplicate registration —
// all programmer errors at init time.
func Register(info Info, factory Factory) {
	if info.Name == "" {
		panic("defense: Register with empty name")
	}
	if factory == nil {
		panic(fmt.Sprintf("defense: Register(%q) with nil factory", info.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("defense: duplicate registration of %q", info.Name))
	}
	registry[info.Name] = registration{info: info, factory: factory}
}

// New instantiates the named defense for a server. Unknown names error
// with the registered alternatives.
func New(name sweep.Defense, ctx ServerCtx) (Defense, error) {
	regMu.RLock()
	reg, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("defense: unknown defense %q (registered: %s)",
			name, strings.Join(nameStrings(), ", "))
	}
	d, err := reg.factory(ctx)
	if err != nil {
		return nil, fmt.Errorf("defense: %q: %w", name, err)
	}
	return d, nil
}

// Lookup returns the registration info for a name.
func Lookup(name sweep.Defense) (Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	reg, ok := registry[name]
	return reg.info, ok
}

// Infos lists every registered defense, sorted by name.
func Infos() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(registry))
	for _, reg := range registry {
		out = append(out, reg.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names lists every registered defense name, sorted.
func Names() []sweep.Defense {
	infos := Infos()
	out := make([]sweep.Defense, len(infos))
	for i, info := range infos {
		out[i] = info.Name
	}
	return out
}

func nameStrings() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, string(name))
	}
	sort.Strings(out)
	return out
}
