package defense

import (
	"fmt"
	"time"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// The step controller's schedule.
const (
	// steppedInterval is the adaptation period: the controller acts on the
	// server ticks that fall on a multiple of it.
	steppedInterval = 5 * time.Second
	// steppedMaxM caps the raised difficulty at 18 bits — the largest
	// per-solution difficulty a w_av-budget client can still pay,
	// k·2^(m-1) ≤ 2·w_av; beyond it the controller would price out the
	// clients it is defending.
	steppedMaxM = 18
)

// steppedPuzzles is the closed-loop controller of §7's future work on top
// of the paper's puzzles defense: every steppedInterval, while the overload
// latch is held and the accept queue is still at or above its high-water
// mark, the difficulty m rises one bit (up to steppedMaxM); once the latch
// releases it decays one bit per interval back to the configured baseline.
// Handshake handling is the puzzles defense's own.
//
// The controller reads the latch without re-evaluating it
// (ServerCtx.OverloadLatched), so ticking it never moves a release time.
type steppedPuzzles struct{ puzzlesDefense }

var steppedPuzzlesInfo = Info{
	Name:    sweep.DefenseSteppedPuzzles,
	Summary: "client puzzles whose m steps up one bit per 5 s under overload, then back down (§7)",
	Puzzles: true,
}

func init() {
	Register(steppedPuzzlesInfo, func(ctx ServerCtx) (Defense, error) {
		if err := ctx.PuzzleParams().Validate(); err != nil {
			return nil, fmt.Errorf("puzzle params: %w", err)
		}
		return steppedPuzzles{}, nil
	})
}

// Describe implements Defense.
func (steppedPuzzles) Describe() Info { return steppedPuzzlesInfo }

// OnTick implements Defense: one step, on steppedInterval boundaries only.
func (steppedPuzzles) OnTick(ctx ServerCtx) {
	now := ctx.Now()
	if now%steppedInterval != 0 {
		return
	}
	p := ctx.Puzzles().Params()
	switch latched := ctx.OverloadLatched(); {
	case latched && ctx.AcceptLen() >= ctx.AcceptHighWater() && p.M < steppedMaxM:
		p.M++
	case !latched && p.M > ctx.PuzzleParams().M:
		p.M--
	default:
		return
	}
	if ctx.Puzzles().SetParams(p) == nil {
		ctx.Metrics().DifficultyM.Set(now, float64(p.M))
	}
}
