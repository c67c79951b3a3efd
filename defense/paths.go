package defense

import (
	"github.com/tcppuzzles/tcppuzzles/internal/syncache"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// This file holds the reusable handshake paths the built-in strategies
// compose: the stateless cookie exchange, the puzzle challenge/verify
// exchange, and the SYN-cache spill. Each is written purely against
// ServerCtx so third-party strategies (e.g. the hybrid escalation) can mix
// them the same way the paper defenses do.

// sendChallenge replies with a stateless SYN-ACK carrying a puzzle. It is
// sent even when the accept queue overflows (the paper's modified
// behaviour), so that solving clients can claim slots the moment they open.
func sendChallenge(ctx ServerCtx, syn tcpkit.Segment) {
	// The SYN-ACK is stateless: the ISN is reconstructed at ACK time from
	// the cookie jar so a bare ACK cannot collide with a real half-open.
	ctx.SendChallenge(syn)
	ctx.Metrics().ChallengesSent.Add(ctx.Now(), 1)
}

// sendCookieSynAck replies with a stateless SYN-cookie SYN-ACK.
func sendCookieSynAck(ctx ServerCtx, syn tcpkit.Segment, mss uint16) {
	ctx.ChargeHashes(1)
	cookie := ctx.Jar().Encode(syn.Flow(), mss)
	ctx.Metrics().CookieSynAcks.Add(ctx.Now(), 1)
	ctx.SynAck(syn, cookie, nil)
}

// completeCookie validates a stateless cookie handshake.
func completeCookie(ctx ServerCtx, ack tcpkit.Segment) {
	flow := ack.Flow()
	flow.ISN = ack.Seq - 1 // the client's SYN ISN preceded this ACK
	ctx.ChargeHashes(1)
	mss, err := ctx.Jar().Decode(flow, ack.Ack-1)
	if err != nil {
		ctx.Metrics().CookieFailures++
		if ack.PayloadLen > 0 {
			ctx.SendRST(ack)
		}
		return
	}
	if ctx.AcceptFull() {
		ctx.Metrics().AcceptOverflow++
		return
	}
	ctx.Establish(tcpkit.PeerOf(ack), mss, false)
	// A data-bearing ACK (cookie + piggybacked request) is processed as
	// data immediately after establishment.
	ctx.DeliverData(ack)
}

// completePuzzle verifies a puzzle solution carried on the ACK. The order of
// checks follows §5: when the accept queue is full the ACK is ignored
// *before* any verification work, deceiving non-compliant senders; a
// later data packet from such a peer draws an RST.
func completePuzzle(ctx ServerCtx, ack tcpkit.Segment) {
	solOpt, ok, err := tcpopt.Lookup(ack.Options, tcpopt.KindSolution)
	if err != nil {
		ctx.Metrics().SolutionMalformed++
		return
	}
	if !ok {
		// Bare ACK without solution while protection is active: the peer
		// either ignored the challenge (unpatched) or this is stray; it is
		// silently ignored. Data probes draw an RST (deception reveal).
		ctx.Metrics().AcksWithoutSolution++
		if ack.PayloadLen > 0 {
			ctx.SendRST(ack)
		}
		return
	}
	completeSolution(ctx, ack, solOpt)
}

// completeSolution runs the verification tail of the puzzle path for an
// ACK whose solution option has already been located.
func completeSolution(ctx ServerCtx, ack tcpkit.Segment, solOpt tcpopt.Option) {
	if ctx.AcceptFull() {
		ctx.Metrics().DeceptionIgnored++
		return
	}
	blk, err := tcpopt.ParseSolution(solOpt, ctx.Puzzles().Params())
	if err != nil {
		ctx.Metrics().SolutionMalformed++
		return
	}
	flow := ack.Flow()
	flow.ISN = ack.Seq - 1
	info, err := ctx.Puzzles().Verify(flow, blk.Solution)
	ctx.ChargeHashes(float64(info.Hashes))
	if err != nil {
		ctx.Metrics().SolutionInvalid++
		return
	}
	peer := tcpkit.PeerOf(ack)
	if ctx.AcceptContains(peer) {
		// Replayed solution: at most one slot per flow (§7).
		ctx.Metrics().ReplaysBlocked++
		return
	}
	ctx.Metrics().SolutionsVerified++
	ctx.Establish(peer, blk.MSS, true)
}

// spillToSynCache stores a half-open in the bounded SYN cache instead of
// the full listen queue and replies with an ordinary stateful SYN-ACK,
// dropping the SYN when the cache is full too.
func spillToSynCache(ctx ServerCtx, syn tcpkit.Segment, mss uint16) {
	serverISN := ctx.NextISN()
	added := ctx.SynCache().Add(&syncache.Entry{
		Peer:      tcpkit.PeerOf(syn),
		ClientISN: syn.Seq,
		ServerISN: serverISN,
		MSS:       mss,
		CreatedAt: ctx.Now(),
		ExpiresAt: ctx.Now() + ctx.SynAckTimeout(),
	})
	if !added {
		ctx.Metrics().SYNsDropped++
		return
	}
	ctx.Metrics().PlainSynAcks.Add(ctx.Now(), 1)
	ctx.SynAck(syn, serverISN, nil)
}

// takeFromSynCache completes a handshake whose half-open state spilled to
// the SYN cache, reporting whether the ACK was consumed.
func takeFromSynCache(ctx ServerCtx, ack tcpkit.Segment) bool {
	entry, ok := ctx.SynCache().Take(tcpkit.PeerOf(ack))
	if !ok {
		return false
	}
	ctx.Establish(tcpkit.PeerOf(ack), entry.MSS, false)
	return true
}
