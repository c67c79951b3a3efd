package serversim

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// Config describes the server deployment.
type Config struct {
	// Addr and Port are the listening endpoint.
	Addr [4]byte
	Port uint16

	// Defense names the protection strategy in the defense registry
	// (sweep.DefenseNone, sweep.DefensePuzzles, ...). Empty selects the
	// paper's default, puzzles.
	Defense sweep.Defense
	// PuzzleParams is the difficulty used by puzzle-issuing defenses.
	PuzzleParams puzzle.Params
	// PuzzleMaxAge is the challenge replay window.
	PuzzleMaxAge time.Duration
	// AlwaysChallenge disables the opportunistic controller and latches
	// the overload signal permanently — the ablation of §5's design
	// choice (the puzzles defense then challenges every SYN).
	AlwaysChallenge bool
	// SimulatedCrypto is read by nothing: the server always runs the
	// simulated engine (see internal/pzengine), which charges the modelled
	// CPU the protocol's hash counts and computes no SHA-256 on the host.
	//
	// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
	SimulatedCrypto bool

	// Backlog bounds the listen queue (half-open connections).
	Backlog int
	// AcceptBacklog bounds the accept queue (established, unaccepted).
	AcceptBacklog int
	// SynAckTimeout expires half-open connections (abstracting SYN-ACK
	// retransmission and reset timers). It is also how long both queues
	// must stay below the low-water mark before the overload latch
	// releases, reproducing the paper's ~30 s recovery.
	SynAckTimeout time.Duration

	// Workers is the application worker pool size (Apache-style). Zero
	// selects the default; -1 disables the pool entirely (nothing drains
	// the accept queue — useful in tests).
	Workers int
	// ServiceTime is the mean (exponential) per-request service time of a
	// worker; aggregate capacity is Workers/ServiceTime.
	ServiceTime time.Duration
	// IdleTimeout is how long a worker waits for a request on an accepted
	// connection before giving up — the resource idle attackers pin.
	IdleTimeout time.Duration

	// Seed drives the server's deterministic randomness.
	Seed int64
	// MetricBucket is the width of metric time buckets.
	MetricBucket time.Duration
}

// fillDefaults fills zero fields with the paper's server deployment:
// backlog and accept queue of 4096 (Fig. 10 saturates near 4000), an
// Apache-like pool of 256 workers at ~230 ms mean service (aggregate
// µ ≈ 1100 req/s, Fig. 3b) with a 2 s idle timeout — which clears a
// saturated 4096-slot accept queue in ≈30 s, the paper's measured
// recovery time — and 30 s half-open expiry.
func (c *Config) fillDefaults() {
	if c.Port == 0 {
		c.Port = 80
	}
	if c.Defense == "" {
		c.Defense = sweep.DefensePuzzles
	}
	if c.PuzzleParams == (puzzle.Params{}) {
		c.PuzzleParams = puzzle.Params{K: 2, M: 17, L: 32}
	}
	if c.PuzzleMaxAge == 0 {
		c.PuzzleMaxAge = 30 * time.Second
	}
	if c.Backlog == 0 {
		c.Backlog = 4096
	}
	if c.AcceptBacklog == 0 {
		c.AcceptBacklog = 4096
	}
	if c.SynAckTimeout == 0 {
		c.SynAckTimeout = 30 * time.Second
	}
	if c.Workers == 0 {
		c.Workers = 256
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = 230 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Second
	}
	if c.MetricBucket == 0 {
		c.MetricBucket = time.Second
	}
}
