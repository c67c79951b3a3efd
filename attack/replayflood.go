package attack

import (
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// replayFlood solves one challenge legitimately, captures its own solution
// ACK, and replays the identical packet at the attack rate (§7 "Replay
// attacks"). Flow binding limits it to one queue slot at a time and the
// timestamp window eventually expires the solution.
type replayFlood struct {
	captured    *tcpkit.Segment
	capturePend bool
}

var replayFloodInfo = Info{
	Name:    sweep.AttackReplayFlood,
	Summary: "captures one solved ACK and replays it at the attack rate (§7)",
}

func init() {
	Register(replayFloodInfo, func(BotCtx) Strategy { return &replayFlood{} })
}

// Tick implements Strategy: re-send the captured solution ACK; until one
// is captured, run a single legitimate solving handshake to obtain it.
func (r *replayFlood) Tick(ctx BotCtx) {
	if r.captured != nil {
		ctx.EmitAttack(*r.captured)
		return
	}
	if r.capturePend {
		return // capture handshake already in flight
	}
	r.capturePend = true
	sendRealSYN(ctx)
}

// OnSynAck implements Strategy: the capture handshake always solves,
// whatever the bot's Solves configuration says.
func (r *replayFlood) OnSynAck(ctx BotCtx, sa SynAck) {
	if !sa.Challenged {
		// Unprotected server: nothing worth capturing; behave like a
		// plain completion and stall (the replay needs a solution).
		ctx.SendHandshakeAck(sa.Port, sa.ISN, sa.ServerISN, nil)
		return
	}
	blk, err := tcpopt.ParseChallenge(sa.Challenge)
	if err != nil {
		r.capturePend = false
		return
	}
	ctx.Solve(float64(sampleSolveHashes(ctx, blk)), sa)
}

// OnSolved implements Strategy: capture the solved ACK and send it for
// the first time.
func (r *replayFlood) OnSolved(ctx BotCtx, sa SynAck) {
	raw, ok := solvedOptions(ctx, sa)
	if !ok {
		r.capturePend = false
		return
	}
	seg := tcpkit.Segment{
		Src: ctx.Addr(), Dst: ctx.ServerAddr(),
		SrcPort: sa.Port, DstPort: ctx.ServerPort(),
		Seq: sa.ISN + 1, Ack: sa.ServerISN + 1,
		Flags:   tcpkit.FlagACK,
		Options: raw,
	}
	r.captured = &seg
	ctx.EmitAttack(seg)
}
