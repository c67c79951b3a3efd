package attack

import (
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// connFlood completes handshakes from the bot's real address and then
// idles (nping-style), targeting the accept queue and worker pool.
// Whether challenges are genuinely solved depends on the bot's Solves
// configuration; an unpatched bot answers challenges with plain ACKs the
// protected server ignores.
type connFlood struct{}

var connFloodInfo = Info{
	Name:    sweep.AttackConnFlood,
	Summary: "real-address connection flood targeting the accept queue (nping)",
}

func init() {
	Register(connFloodInfo, func(BotCtx) Strategy { return connFlood{} })
}

// Tick implements Strategy.
func (connFlood) Tick(ctx BotCtx) { sendRealSYN(ctx) }

// OnSynAck implements Strategy: the connection-flood completion logic.
func (connFlood) OnSynAck(ctx BotCtx, sa SynAck) {
	if !sa.Challenged || !ctx.Solves() {
		// Unchallenged handshake, or an unpatched bot: plain ACK (which a
		// challenging server ignores). The bot still believes the
		// connection opened (nping semantics).
		ctx.SendHandshakeAck(sa.Port, sa.ISN, sa.ServerISN, nil)
		return
	}
	// The patched-kernel path: honour the bot's solve-backlog bound and
	// queue the brute force on the CPU model.
	blk, err := tcpopt.ParseChallenge(sa.Challenge)
	if err != nil {
		return
	}
	if ctx.MaxSolveBacklog() > 0 && ctx.CPUBacklog() > ctx.MaxSolveBacklog() {
		ctx.Metrics().ChallengesDiscarded++
		return
	}
	ctx.Solve(float64(sampleSolveHashes(ctx, blk)), sa)
}

// OnSolved implements Strategy: complete the handshake with the solution.
func (connFlood) OnSolved(ctx BotCtx, sa SynAck) {
	if raw, ok := solvedOptions(ctx, sa); ok {
		ctx.SendHandshakeAck(sa.Port, sa.ISN, sa.ServerISN, raw)
	}
}
