package defense

import (
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// noneDefense is the unprotected control setting: stateful handshakes
// only, SYNs dropped outright whenever either queue is exhausted.
type noneDefense struct{}

var noneInfo = Info{
	Name:    sweep.DefenseNone,
	Summary: "unprotected control: stateful handshakes, drop on queue exhaustion",
}

func init() {
	Register(noneInfo, func(ServerCtx) Defense { return noneDefense{} })
}

// OnSYN implements Defense.
func (noneDefense) OnSYN(ctx ServerCtx, syn tcpkit.Segment, mss uint16, wscale uint8) {
	if ctx.AcceptFull() {
		ctx.Metrics().SYNsDropped++
		return
	}
	ctx.NormalSYN(syn, mss, wscale)
}

// OnACK implements Defense: no stateless completion path exists.
func (noneDefense) OnACK(ServerCtx, tcpkit.Segment) bool { return false }

// OnTick implements Defense.
func (noneDefense) OnTick(ServerCtx) {}
