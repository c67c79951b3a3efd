package defense

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/game"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// The defender's model of its own deployment, fixed at registration time:
// a uniform finite game (game.FiniteGame) whose effective service rate
// shrinks linearly with the estimated attack rate. The constants are
// exported so the differential tests (and the arms-race driver) can
// recompute the exact Stackelberg prediction the plugin chases for any
// attack-rate estimate.
const (
	// AdaptiveModelClients and AdaptiveModelWeight describe the benign
	// population the provider optimises for: N identical clients valuing a
	// connection at the paper's measured w_av hashes (§4.4).
	AdaptiveModelClients = 8
	AdaptiveModelWeight  = 140630
	// AdaptiveModelService is the nominal M/M/1 service rate µ₀ the server
	// believes it has with no attack in progress.
	AdaptiveModelService = 100.0
	// AdaptiveModelCost is the effective service-rate loss per attack
	// SYN/s: µ_eff = µ₀ − cost·attackRate, floored at
	// AdaptiveModelMinService so the game stays well formed under floods
	// that would nominally drive capacity negative.
	AdaptiveModelCost       = 0.25
	AdaptiveModelMinService = 5.0
)

// Estimator smoothing: the benign-rate baseline learns slowly and only
// outside overload (with a 2× flash-crowd guard so the pre-latch seconds
// of a flood cannot contaminate it); the attack estimate tracks the excess
// over baseline with a faster EWMA.
const (
	adaptiveBenignAlpha = 0.1
	adaptiveAttackAlpha = 0.25
)

// AdaptiveGame returns the defender's finite game for an estimated attack
// rate: AdaptiveModelClients uniform clients at AdaptiveModelWeight, with
// the service rate degraded by the attack.
func AdaptiveGame(attackRate float64) game.FiniteGame {
	mu := AdaptiveModelService - AdaptiveModelCost*attackRate
	if mu < AdaptiveModelMinService {
		mu = AdaptiveModelMinService
	}
	return game.UniformGame(AdaptiveModelClients, AdaptiveModelWeight, mu)
}

// AdaptiveTarget maps an attack-rate estimate to deployable puzzle
// parameters: the Stackelberg-optimal work level ℓ* for AdaptiveGame,
// pushed through game.ParamsFor at the deployment's solution count and
// preimage length. When ℓ* needs more bits than the preimage carries the
// difficulty clamps to the hardest attainable setting instead of erroring,
// so the controller always has a deployable answer.
func AdaptiveTarget(attackRate float64, base puzzle.Params) (puzzle.Params, error) {
	lstar, err := AdaptiveGame(attackRate).OptimalDifficulty()
	if err != nil {
		return puzzle.Params{}, err
	}
	p, err := game.ParamsFor(lstar, base.K, base.L)
	if err == nil {
		return p, nil
	}
	m := int(base.L)
	if m > puzzle.MaxDifficultyBits {
		m = puzzle.MaxDifficultyBits
	}
	p = puzzle.Params{K: base.K, M: uint8(m), L: base.L}
	if verr := p.Validate(); verr != nil {
		return puzzle.Params{}, verr
	}
	return p, nil
}

// AdaptiveSample is one OnTick observation of the adaptive controller.
type AdaptiveSample struct {
	// At is the tick time.
	At time.Duration
	// SYNRate is the raw observed SYN arrival rate over the last tick.
	SYNRate float64
	// AttackRate is the smoothed attack-rate estimate after this tick.
	AttackRate float64
	// Params is the difficulty deployed after this tick.
	Params puzzle.Params
}

// AdaptivePuzzles retunes puzzle difficulty during the run: each OnTick it
// estimates the attack rate from the SYN-arrival counter (excess over a
// benign baseline learned outside overload), solves the Stackelberg best
// response for the degraded-capacity game (AdaptiveTarget), and deploys
// the resulting (K, M) on the live puzzle engine. Handshake handling is
// the embedded puzzles defense's own; only the difficulty moves. After the
// flood stops the estimate decays and the difficulty returns to the
// no-attack optimum.
//
// The controller draws nothing from the server RNG and reads only
// cumulative counters through ServerCtx, so runs stay byte-identical at
// every worker count.
type AdaptivePuzzles struct {
	puzzlesDefense
	base       puzzle.Params
	prevSYNs   uint64
	prevAt     time.Duration
	benign     float64
	haveBenign bool
	attack     float64
	trace      []AdaptiveSample
}

var adaptivePuzzlesInfo = Info{
	Name:    sweep.DefenseAdaptivePuzzles,
	Summary: "client puzzles with in-run Stackelberg best-response difficulty",
	Puzzles: true,
}

func init() {
	Register(adaptivePuzzlesInfo, func(ctx ServerCtx) Defense {
		return &AdaptivePuzzles{base: ctx.PuzzleParams()}
	})
}

// OnTick implements Defense: estimate, solve, retune.
func (d *AdaptivePuzzles) OnTick(ctx ServerCtx) {
	now := ctx.Now()
	elapsed := (now - d.prevAt).Seconds()
	if elapsed <= 0 {
		return
	}
	syns := ctx.Metrics().SYNsReceived
	rate := float64(syns-d.prevSYNs) / elapsed
	d.prevSYNs, d.prevAt = syns, now

	if !d.haveBenign {
		d.benign, d.haveBenign = rate, true
	} else if !ctx.OverloadActive() && rate < 2*d.benign {
		d.benign += adaptiveBenignAlpha * (rate - d.benign)
	}
	excess := rate - d.benign
	if excess < 0 {
		excess = 0
	}
	d.attack += adaptiveAttackAlpha * (excess - d.attack)

	if target, err := AdaptiveTarget(d.attack, d.base); err == nil &&
		target != ctx.Puzzles().Params() {
		if ctx.Puzzles().SetParams(target) == nil {
			ctx.Metrics().DifficultyM.Set(now, float64(target.M))
		}
	}
	d.trace = append(d.trace, AdaptiveSample{
		At: now, SYNRate: rate, AttackRate: d.attack, Params: ctx.Puzzles().Params(),
	})
}

// Trace returns every per-tick observation, oldest first.
func (d *AdaptivePuzzles) Trace() []AdaptiveSample {
	return append([]AdaptiveSample(nil), d.trace...)
}

// TraceAt returns the last observation at or before t, for reading the
// controller's converged state at a point inside the attack window after
// the run has ended (the estimate decays once the flood stops).
func (d *AdaptivePuzzles) TraceAt(t time.Duration) (AdaptiveSample, bool) {
	var out AdaptiveSample
	var ok bool
	for _, s := range d.trace {
		if s.At > t {
			break
		}
		out, ok = s, true
	}
	return out, ok
}
