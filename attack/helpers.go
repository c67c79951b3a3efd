package attack

import (
	"math/rand"

	"github.com/tcppuzzles/tcppuzzles/internal/pzengine"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// This file holds the reusable attack actions the built-in strategies
// compose — real and spoofed SYNs, challenge solving, solution
// fabrication — written purely against BotCtx so third-party strategies
// can mix them the same way the paper floods do.

// sendRealSYN opens a handshake from the bot's own address and registers
// it so the SYN-ACK routes back to the strategy.
func sendRealSYN(ctx BotCtx) {
	port := ctx.NextPort()
	isn := ctx.NextISN()
	ctx.ExpectSynAck(port, isn)
	ctx.EmitAttack(tcpkit.Segment{
		Src: ctx.Addr(), Dst: ctx.ServerAddr(),
		SrcPort: port, DstPort: ctx.ServerPort(),
		Seq: isn, Flags: tcpkit.FlagSYN, Window: 65535,
	})
}

// sendSpoofedSYN emits a SYN with a random forged source.
func sendSpoofedSYN(ctx BotCtx) {
	rnd := ctx.Rand()
	src := [4]byte{100, byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(1 + rnd.Intn(254))}
	ctx.EmitAttack(tcpkit.Segment{
		Src: src, Dst: ctx.ServerAddr(),
		SrcPort: uint16(1024 + rnd.Intn(60000)), DstPort: ctx.ServerPort(),
		Seq: rnd.Uint32(), Flags: tcpkit.FlagSYN, Window: 65535,
	})
}

// sampleSolveHashes draws the brute-force cost of one challenge.
func sampleSolveHashes(ctx BotCtx, blk tcpopt.ChallengeBlock) uint64 {
	return puzzle.SampleSolveHashes(ctx.Rand(), blk.Challenge.Params)
}

// solveChallenge produces the solution for a challenge: canonical
// simulated bits when the deployment runs the simulated engine, genuine
// brute force otherwise. The caller charges sampleSolveHashes to the CPU.
func solveChallenge(ctx BotCtx, blk tcpopt.ChallengeBlock) puzzle.Solution {
	if ctx.SimulatedCrypto() {
		return pzengine.SimSolution(blk.Challenge)
	}
	s, _, err := puzzle.Solve(blk.Challenge)
	if err != nil {
		return puzzle.Solution{Params: blk.Challenge.Params, Timestamp: blk.Challenge.Timestamp}
	}
	return s
}

// noSolves is embedded by strategies that never call BotCtx.Solve.
type noSolves struct{}

// OnSolved implements Strategy.
func (noSolves) OnSolved(BotCtx, SynAck) {}

// solvedOptions is the completion step the solving strategies share:
// account the solve, recover the challenge from the SYN-ACK that carried
// it (validated before it was queued) and marshal its solution into ACK
// options.
func solvedOptions(ctx BotCtx, sa SynAck) ([]byte, bool) {
	blk, err := tcpopt.ParseChallenge(sa.Challenge)
	if err != nil {
		return nil, false
	}
	ctx.Metrics().SolvesCompleted++
	raw, err := encodeSolutionOptions(solveChallenge(ctx, blk))
	return raw, err == nil
}

// encodeSolutionOptions marshals a solved challenge into ACK options.
func encodeSolutionOptions(sol puzzle.Solution) ([]byte, error) {
	opt, err := tcpopt.EncodeSolution(tcpopt.SolutionBlock{
		MSS: 1460, WScale: 7, HasTimestamp: true, Solution: sol,
	})
	if err != nil {
		return nil, err
	}
	return tcpopt.MarshalOptions([]tcpopt.Option{opt})
}

// paramsGuess is the difficulty a solution flooder fabricates blocks
// for. A real attacker reads it from an observed challenge; the guess
// matters only for block sizing, and the paper's default is used.
func paramsGuess() puzzle.Params {
	return puzzle.Params{K: 2, M: 17, L: 32}
}

// fabricateSolution fills a solution with random bytes.
func fabricateSolution(rnd *rand.Rand, p puzzle.Params) puzzle.Solution {
	sol := puzzle.Solution{
		Params:    p,
		Timestamp: uint32(rnd.Int63()),
		Solutions: make([][]byte, p.K),
	}
	for i := range sol.Solutions {
		b := make([]byte, p.SolutionBytes())
		rnd.Read(b)
		sol.Solutions[i] = b
	}
	return sol
}
