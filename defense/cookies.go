package defense

import (
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// cookiesDefense is the kernel SYN-cookie configuration: stateless
// SYN-ACKs once the listen queue fills, but SYNs still dropped outright
// when the accept queue is full — the gap that makes cookies ineffective
// against connection floods (§6.2).
type cookiesDefense struct{}

var cookiesInfo = Info{
	Name:    sweep.DefenseCookies,
	Summary: "SYN cookies: stateless SYN-ACKs once the listen queue fills (§6.2)",
}

func init() {
	Register(cookiesInfo, func(ServerCtx) Defense { return cookiesDefense{} })
}

// OnSYN implements Defense.
func (cookiesDefense) OnSYN(ctx ServerCtx, syn tcpkit.Segment, mss uint16, wscale uint8) {
	if ctx.AcceptFull() {
		// Linux drops SYNs outright when the accept queue is full —
		// the gap that makes cookies ineffective against connection
		// floods (§6.2).
		ctx.Metrics().SYNsDropped++
		return
	}
	if ctx.ListenFull() {
		sendCookieSynAck(ctx, syn, mss)
		return
	}
	ctx.NormalSYN(syn, mss, wscale)
}

// OnACK implements Defense: every unmatched ACK is tried as a cookie
// completion.
func (cookiesDefense) OnACK(ctx ServerCtx, ack tcpkit.Segment) bool {
	completeCookie(ctx, ack)
	return true
}

// OnTick implements Defense.
func (cookiesDefense) OnTick(ServerCtx) {}
