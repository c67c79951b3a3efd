package defense

import (
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// syncacheDefense is the BSD-style SYN cache: listen-queue overflow spills
// compact half-open state into a bounded cache (4× backlog) instead of
// dropping, deferring exhaustion rather than preventing it.
type syncacheDefense struct{}

var syncacheInfo = Info{
	Name:    sweep.DefenseSYNCache,
	Summary: "SYN cache: bounded half-open overflow store (4x backlog)",
}

func init() {
	Register(syncacheInfo, func(ServerCtx) Defense { return syncacheDefense{} })
}

// OnSYN implements Defense.
func (syncacheDefense) OnSYN(ctx ServerCtx, syn tcpkit.Segment, mss uint16, wscale uint8) {
	if ctx.ListenFull() {
		spillToSynCache(ctx, syn, mss)
		return
	}
	ctx.NormalSYN(syn, mss, wscale)
}

// OnACK implements Defense: completions for spilled half-opens come from
// the cache; anything else falls through to the server default.
func (syncacheDefense) OnACK(ctx ServerCtx, ack tcpkit.Segment) bool {
	return takeFromSynCache(ctx, ack)
}

// OnTick implements Defense. (Cache expiry runs on the server's sweep
// alongside listen-queue expiry, as it did before the registry.)
func (syncacheDefense) OnTick(ServerCtx) {}
