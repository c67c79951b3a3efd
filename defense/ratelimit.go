package defense

import (
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// rateLimitDefense is a probabilistic SYN rate-limiter baseline, in the
// spirit of RED queueing: below the listen queue's high watermark every
// SYN is admitted; above it each SYN survives a coin flip whose drop
// probability rises linearly with occupancy, reaching certainty at a full
// queue. It spends no crypto and keeps no extra state — the cheapest
// possible comparison point between "none" and the stateless defenses —
// and, like every early-drop scheme, cannot distinguish attacker SYNs
// from client SYNs, which is exactly the weakness the sweep grids expose.
type rateLimitDefense struct{}

var rateLimitInfo = Info{
	Name:    sweep.DefenseRateLimit,
	Summary: "probabilistic RED-style SYN admission above the listen high watermark",
}

func init() {
	Register(rateLimitInfo, func(ServerCtx) Defense { return rateLimitDefense{} })
}

// OnSYN implements Defense.
func (rateLimitDefense) OnSYN(ctx ServerCtx, syn tcpkit.Segment, mss uint16, wscale uint8) {
	if ctx.AcceptFull() {
		ctx.Metrics().SYNsDropped++
		return
	}
	occupancy, capacity, hi := ctx.ListenLen(), ctx.Backlog(), ctx.ListenHighWater()
	switch {
	case occupancy >= capacity:
		// Certain drop: skip the coin flip (and the ISN draw a doomed
		// NormalSYN would burn) so the RNG stream stays occupancy-driven.
		ctx.Metrics().SYNsDropped++
		return
	case occupancy >= hi:
		drop := float64(occupancy-hi+1) / float64(capacity-hi+1)
		if ctx.Rand().Float64() < drop {
			ctx.Metrics().SYNsDropped++
			return
		}
	}
	ctx.NormalSYN(syn, mss, wscale)
}

// OnACK implements Defense: no stateless completion path exists.
func (rateLimitDefense) OnACK(ServerCtx, tcpkit.Segment) bool { return false }

// OnTick implements Defense.
func (rateLimitDefense) OnTick(ServerCtx) {}
