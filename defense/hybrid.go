package defense

import (
	"fmt"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// hybridDefense escalates through the paper's comparison surface instead
// of picking one point on it: while the overload latch is engaged it first
// serves stateless SYN cookies (one hash per SYN — the cheap answer to a
// listen-queue flood), and only once the *accept* queue climbs past its
// high watermark — the §6.2 connection-flood signature cookies cannot
// answer — does it escalate to client-puzzle challenges, pricing admission
// instead of merely avoiding state.
//
// On the completion side, solution-bearing ACKs run the puzzle verify path
// and everything else is tried as a cookie, so both currencies stay
// redeemable while their issue windows overlap.
//
// The strategy is built purely on the ServerCtx facade and the shared
// handshake paths — no simulator-core code knows it exists.
type hybridDefense struct{}

var hybridInfo = Info{
	Name:    sweep.DefenseHybrid,
	Summary: "SYN cookies first, escalating to client puzzles under accept-queue pressure",
	Puzzles: true,
}

func init() {
	Register(hybridInfo, func(ctx ServerCtx) (Defense, error) {
		if err := ctx.PuzzleParams().Validate(); err != nil {
			return nil, fmt.Errorf("puzzle params: %w", err)
		}
		return hybridDefense{}, nil
	})
}

// Describe implements Defense.
func (hybridDefense) Describe() Info { return hybridInfo }

// OnSYN implements Defense.
func (hybridDefense) OnSYN(ctx ServerCtx, syn tcpkit.Segment, mss uint16, wscale uint8) {
	if !ctx.OverloadActive() {
		// Calm: the unprotected fast path.
		if ctx.AcceptFull() {
			ctx.Metrics().SYNsDropped++
			return
		}
		ctx.NormalSYN(syn, mss, wscale)
		return
	}
	if ctx.AcceptLen() >= ctx.AcceptHighWater() {
		// Accept-queue pressure: attackers are completing handshakes, so
		// cookies only launder the flood into established state. Escalate
		// to puzzles (sent even on overflow, per the §5 modification).
		sendChallenge(ctx, syn)
		return
	}
	if ctx.ListenFull() {
		// Pure SYN pressure: shed half-open state, keep admission free.
		sendCookieSynAck(ctx, syn, mss)
		return
	}
	ctx.NormalSYN(syn, mss, wscale)
}

// OnACK implements Defense: solutions redeem via the puzzle path, all
// other unmatched ACKs (including unparsable options) via the cookie
// path. Options are scanned once; the located solution option feeds the
// verification tail directly.
func (hybridDefense) OnACK(ctx ServerCtx, ack tcpkit.Segment) bool {
	if solOpt, ok, _ := tcpopt.Lookup(ack.Options, tcpopt.KindSolution); ok {
		completeSolution(ctx, ack, solOpt)
		return true
	}
	completeCookie(ctx, ack)
	return true
}

// OnTick implements Defense.
func (hybridDefense) OnTick(ServerCtx) {}
