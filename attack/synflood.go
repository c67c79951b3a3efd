package attack

import "github.com/tcppuzzles/tcppuzzles/sweep"

// synFlood sends spoofed SYNs (hping3-style) and never completes
// handshakes, targeting the listen queue.
type synFlood struct{ noSolves }

var synFloodInfo = Info{
	Name:    sweep.AttackSYNFlood,
	Summary: "spoofed SYN flood targeting the listen queue (hping3)",
}

func init() {
	Register(synFloodInfo, func(BotCtx) Strategy { return synFlood{} })
}

// Tick implements Strategy.
func (synFlood) Tick(ctx BotCtx) { sendSpoofedSYN(ctx) }

// OnSynAck implements Strategy: replies to spoofed sources never route
// back, so there is nothing to react to.
func (synFlood) OnSynAck(BotCtx, SynAck) {}
