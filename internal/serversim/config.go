package serversim

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/cpumodel"
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
	// ProtectionRelease is how long both queues must stay below the
	// low-water mark before the overload latch disengages; defaults
	// to SynAckTimeout, reproducing the paper's ~30 s recovery.
	ProtectionRelease time.Duration
	// AdaptiveDifficulty enables the closed-loop controller of §7's future
	// work: while the overload latch is engaged and the accept queue keeps
	// climbing, the difficulty m is raised one bit per AdaptInterval (up
	// to AdaptMaxM); once the latch disengages it decays back to the
	// configured baseline.
	AdaptiveDifficulty bool
	// AdaptInterval is the adaptation period (default 5 s).
	AdaptInterval time.Duration
	// AdaptMaxM caps the adaptive difficulty (default 18 bits — the
	// largest per-solution difficulty a w_av-budget client can still pay,
	// k·2^(m-1) ≤ 2·w_av; beyond it the controller would price out the
	// clients it is defending).
	AdaptMaxM uint8
	// SimulatedCrypto swaps genuine SHA-256 verification for the
	// cost-equivalent simulated engine (see internal/pzengine), letting
	// experiments run 17-bit difficulties without burning host cycles,
	// and derives challenge preimages and cookie hash bits from a keyed
	// mix instead of SHA-256 (puzzle.WithSimulatedPreimage,
	// syncookie.WithSimulatedHash). The modelled CPU is charged the same
	// hash counts either way.
	SimulatedCrypto bool

	// Backlog bounds the listen queue (half-open connections).
	Backlog int
	// AcceptBacklog bounds the accept queue (established, unaccepted).
	AcceptBacklog int
	// SynAckTimeout expires half-open connections (abstracting SYN-ACK
	// retransmission and reset timers).
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

	// MSS is the server's maximum segment size for response data.
	MSS int

	// Device models the server CPU for hash accounting (Fig. 9).
	Device cpumodel.Device
	// PerRequestHashEquiv charges baseline (non-crypto) application work
	// per served request, expressed in hash-equivalents, so nominal CPU
	// load is nonzero.
	PerRequestHashEquiv float64

	// Seed drives the server's deterministic randomness.
	Seed int64
	// MetricBucket is the width of metric time buckets.
	MetricBucket time.Duration
}

// DefaultConfig returns the paper's server deployment: backlog and accept
// queue of 4096 (Fig. 10 saturates near 4000), an Apache-like pool of 256
// workers at ~230 ms mean service (aggregate µ ≈ 1100 req/s, Fig. 3b) with
// a 2 s idle timeout — which clears a saturated 4096-slot accept queue in
// ≈30 s, the paper's measured recovery time — 30 s half-open expiry, and
// the HP Proliant CPU profile.
func DefaultConfig() Config {
	return Config{
		Addr:                [4]byte{10, 0, 0, 1},
		Port:                80,
		Defense:             sweep.DefensePuzzles,
		PuzzleParams:        puzzle.Params{K: 2, M: 17, L: 32},
		PuzzleMaxAge:        30 * time.Second,
		Backlog:             4096,
		AcceptBacklog:       4096,
		SynAckTimeout:       30 * time.Second,
		Workers:             256,
		ServiceTime:         230 * time.Millisecond,
		IdleTimeout:         2 * time.Second,
		MSS:                 1448,
		Device:              cpumodel.Server,
		PerRequestHashEquiv: 2000,
		Seed:                1,
		MetricBucket:        time.Second,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Port == 0 {
		c.Port = d.Port
	}
	if c.Defense == "" {
		c.Defense = d.Defense
	}
	if c.PuzzleParams == (puzzle.Params{}) {
		c.PuzzleParams = d.PuzzleParams
	}
	if c.PuzzleMaxAge == 0 {
		c.PuzzleMaxAge = d.PuzzleMaxAge
	}
	if c.Backlog == 0 {
		c.Backlog = d.Backlog
	}
	if c.AcceptBacklog == 0 {
		c.AcceptBacklog = d.AcceptBacklog
	}
	if c.SynAckTimeout == 0 {
		c.SynAckTimeout = d.SynAckTimeout
	}
	if c.ProtectionRelease == 0 {
		c.ProtectionRelease = c.SynAckTimeout
	}
	if c.AdaptInterval == 0 {
		c.AdaptInterval = 5 * time.Second
	}
	if c.AdaptMaxM == 0 {
		c.AdaptMaxM = 18
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = d.ServiceTime
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = d.IdleTimeout
	}
	if c.MSS == 0 {
		c.MSS = d.MSS
	}
	if c.Device.HashRate == 0 {
		c.Device = d.Device
	}
	if c.PerRequestHashEquiv == 0 {
		c.PerRequestHashEquiv = d.PerRequestHashEquiv
	}
	if c.MetricBucket == 0 {
		c.MetricBucket = d.MetricBucket
	}
}
