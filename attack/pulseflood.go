package attack

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// Pulse shape: a square wave over the attack window. One quarter duty
// cycle at a period near the defenses' release windows probes the
// engage/latch/release dynamics instead of applying constant pressure —
// an attacker trying to ride the controller's hysteresis.
const (
	pulsePeriod = 16 * time.Second
	pulseOn     = 4 * time.Second
)

// pulseFlood is a spoofed SYN flood fired in on/off bursts. During the
// "on" quarter of each period it behaves exactly like synflood; during
// the "off" phase the bot stays silent (ticks continue but emit nothing,
// so the measured attack rate shows the bursts).
type pulseFlood struct{ noSolves }

var pulseFloodInfo = Info{
	Name:    sweep.AttackPulseFlood,
	Summary: "spoofed SYN flood in on/off bursts probing the overload latch",
}

func init() {
	Register(pulseFloodInfo, func(BotCtx) Strategy { return pulseFlood{} })
}

// Tick implements Strategy.
func (pulseFlood) Tick(ctx BotCtx) {
	start, _ := ctx.AttackWindow()
	if (ctx.Now()-start)%pulsePeriod >= pulseOn {
		return // silent phase: no packet, no Sent accounting
	}
	sendSpoofedSYN(ctx)
}

// OnSynAck implements Strategy: replies to spoofed sources never route
// back.
func (pulseFlood) OnSynAck(BotCtx, SynAck) {}
