package serversim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/tcppuzzles/tcppuzzles/defense"
	"github.com/tcppuzzles/tcppuzzles/internal/pzengine"
	"github.com/tcppuzzles/tcppuzzles/internal/srvmetrics"
	"github.com/tcppuzzles/tcppuzzles/internal/syncache"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/syncookie"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// serverCtx is the server's implementation of defense.ServerCtx: the
// narrow facade a protection strategy sees. It is a value wrapper, cheap
// to mint per call, and deliberately exposes nothing beyond what the
// registered strategies need — queue pressure, handshake primitives,
// crypto-cost charging, and shared measurement state.
type serverCtx struct{ s *Server }

var _ defense.ServerCtx = serverCtx{}

// ctx mints the facade for a defense hook invocation.
func (s *Server) ctx() defense.ServerCtx { return serverCtx{s} }

// Now implements defense.ServerCtx.
func (c serverCtx) Now() time.Duration { return c.s.eng.Now() }

// Rand implements defense.ServerCtx.
func (c serverCtx) Rand() *rand.Rand { return c.s.rnd }

// Backlog implements defense.ServerCtx.
func (c serverCtx) Backlog() int { return c.s.cfg.Backlog }

// SynAckTimeout implements defense.ServerCtx.
func (c serverCtx) SynAckTimeout() time.Duration { return c.s.cfg.SynAckTimeout }

// PuzzleParams implements defense.ServerCtx.
func (c serverCtx) PuzzleParams() puzzle.Params {
	if !c.s.puzzles {
		c.s.noPuzzles("PuzzleParams")
	}
	return c.s.cfg.PuzzleParams
}

// ListenLen implements defense.ServerCtx.
func (c serverCtx) ListenLen() int { return c.s.listenQ.Len() }

// ListenFull implements defense.ServerCtx.
func (c serverCtx) ListenFull() bool { return c.s.listenQ.Full() }

// ListenHighWater implements defense.ServerCtx.
func (c serverCtx) ListenHighWater() int { return high(c.s.cfg.Backlog) }

// AcceptLen implements defense.ServerCtx.
func (c serverCtx) AcceptLen() int { return c.s.acceptQ.Len() }

// AcceptFull implements defense.ServerCtx.
func (c serverCtx) AcceptFull() bool { return c.s.acceptQ.Full() }

// AcceptHighWater implements defense.ServerCtx.
func (c serverCtx) AcceptHighWater() int { return high(c.s.cfg.AcceptBacklog) }

// AcceptContains implements defense.ServerCtx.
func (c serverCtx) AcceptContains(peer tcpkit.PeerKey) bool { return c.s.acceptQ.Contains(peer) }

// OverloadActive implements defense.ServerCtx.
func (c serverCtx) OverloadActive() bool { return c.s.overloadActive() }

// OverloadLatched implements defense.ServerCtx.
func (c serverCtx) OverloadLatched() bool { return c.s.protLatched }

// NextISN implements defense.ServerCtx.
func (c serverCtx) NextISN() uint32 { return c.s.isns.Next() }

// NormalSYN implements defense.ServerCtx.
func (c serverCtx) NormalSYN(syn tcpkit.Segment, mss uint16, wscale uint8) {
	c.s.normalSYN(syn, mss, wscale)
}

// SynAck implements defense.ServerCtx.
func (c serverCtx) SynAck(syn tcpkit.Segment, serverISN uint32, opts []byte) {
	c.s.send(c.s.synAck(syn, serverISN, opts))
}

// SynAckChallenge implements defense.ServerCtx. The option bytes come from
// the server's bump buffer, so a challenge costs no heap object.
func (c serverCtx) SynAckChallenge(syn tcpkit.Segment, serverISN uint32, ch puzzle.Challenge) error {
	s := c.s
	opts, err := tcpopt.AppendChallenge(s.carve(tcpopt.ChallengeWireSize(ch.Params, true))[:0], ch, true)
	if err != nil {
		return err
	}
	s.send(s.synAck(syn, serverISN, opts))
	return nil
}

// SendRST implements defense.ServerCtx.
func (c serverCtx) SendRST(seg tcpkit.Segment) { c.s.sendRST(seg) }

// Establish implements defense.ServerCtx.
func (c serverCtx) Establish(peer tcpkit.PeerKey, mss uint16, solvedPuzzle bool) {
	c.s.establish(peer, mss, solvedPuzzle)
}

// DeliverData implements defense.ServerCtx.
func (c serverCtx) DeliverData(seg tcpkit.Segment) {
	if conn, ok := c.s.conns[tcpkit.PeerOf(seg)]; ok && seg.PayloadLen > 0 {
		c.s.onData(conn, seg)
	}
}

// ChargeHashes implements defense.ServerCtx.
func (c serverCtx) ChargeHashes(n float64) { c.s.chargeHashes(n) }

// Jar implements defense.ServerCtx.
func (c serverCtx) Jar() *syncookie.Jar { return c.s.jar }

// Puzzles implements defense.ServerCtx.
func (c serverCtx) Puzzles() pzengine.Engine {
	if !c.s.puzzles {
		c.s.noPuzzles("Puzzles")
	}
	return c.s.engine
}

// noPuzzles enforces defense.Info.Puzzles: a defense registered without
// it must not see the puzzle parameters or engine, because the executor
// shares one simulation among cells that differ only in them.
func (s *Server) noPuzzles(method string) {
	panic(fmt.Sprintf("serversim: defense %q calls ServerCtx.%s but is registered without Info.Puzzles", s.cfg.Defense, method))
}

// SynCache implements defense.ServerCtx. The cache (4× backlog) is built
// on first use, so defenses that never spill do not pay for its map.
func (c serverCtx) SynCache() *syncache.Cache {
	if c.s.cache == nil {
		c.s.cache = syncache.New(c.s.cfg.Backlog*4, syncache.RejectNew)
	}
	return c.s.cache
}

// Metrics implements defense.ServerCtx.
func (c serverCtx) Metrics() *srvmetrics.Metrics { return c.s.metrics }
