package defense

import (
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// puzzlesDefense is the paper's TCP client-puzzle protection (§5): the
// opportunistic controller challenges every SYN while the overload latch
// is engaged — even when the accept queue overflows, so solving clients
// can claim slots the moment they open — and verifies solutions
// statelessly on the returning ACK. The difficulty-retuning
// stepped-puzzles defense embeds it, so the two share one handshake path
// and differ only in OnTick.
type puzzlesDefense struct{}

var puzzlesInfo = Info{
	Name:    sweep.DefensePuzzles,
	Summary: "TCP client puzzles with the opportunistic challenge controller (§5)",
	Puzzles: true,
}

func init() {
	Register(puzzlesInfo, func(ServerCtx) Defense { return puzzlesDefense{} })
}

// OnSYN implements Defense: the opportunistic controller (§5). Challenges
// engage when a queue fills and latch until both queues drain below the
// low-water mark; per the paper's modification, challenges are sent even
// while the accept queue overflows rather than dropping SYNs.
// AlwaysChallenge is the ablation that drops the opportunism.
func (puzzlesDefense) OnSYN(ctx ServerCtx, syn tcpkit.Segment, mss uint16, wscale uint8) {
	if ctx.OverloadActive() {
		sendChallenge(ctx, syn)
		return
	}
	ctx.NormalSYN(syn, mss, wscale)
}

// OnACK implements Defense: every unmatched ACK runs the puzzle completion
// path (solution verify, deception when the accept queue is full).
func (puzzlesDefense) OnACK(ctx ServerCtx, ack tcpkit.Segment) bool {
	completePuzzle(ctx, ack)
	return true
}

// OnTick implements Defense.
func (puzzlesDefense) OnTick(ServerCtx) {}
