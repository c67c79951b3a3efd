package attack

import (
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// solutionFlood sends ACKs carrying structurally valid but worthless
// solutions to burn server verification cycles (§7).
type solutionFlood struct{ noSolves }

var solutionFloodInfo = Info{
	Name:    sweep.AttackSolutionFlood,
	Summary: "bogus-solution ACK flood burning server verification cycles (§7)",
}

func init() {
	Register(solutionFloodInfo, func(BotCtx) Strategy { return solutionFlood{} })
}

// Tick implements Strategy: fabricate an ACK carrying a structurally valid
// but worthless solution block, maximising server verification work.
func (solutionFlood) Tick(ctx BotCtx) {
	rnd := ctx.Rand()
	sol := fabricateSolution(rnd, paramsGuess())
	opts, err := encodeSolutionOptions(sol)
	if err != nil {
		return
	}
	ctx.EmitAttack(tcpkit.Segment{
		Src: ctx.Addr(), Dst: ctx.ServerAddr(),
		SrcPort: uint16(1024 + rnd.Intn(60000)), DstPort: ctx.ServerPort(),
		Seq: rnd.Uint32(), Ack: rnd.Uint32(),
		Flags:   tcpkit.FlagACK,
		Options: opts,
	})
}

// OnSynAck implements Strategy: the flooder opens no handshakes.
func (solutionFlood) OnSynAck(BotCtx, SynAck) {}
