package attack

import (
	"github.com/tcppuzzles/tcppuzzles/game"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// Replicator schedule: shares update every adaptiveEpochTicks attack
// actions from the arm payoffs observed during the epoch, with an
// exploration floor so a temporarily starved arm can recover. Epochs are
// counted in the bot's own ticks (never wall time or global metrics), so
// the dynamics are a pure function of the bot's local observation stream —
// the property that keeps adaptation byte-deterministic however the bots
// are batched.
const (
	// AdaptiveEpochTicks is the replicator epoch length in attack actions.
	AdaptiveEpochTicks = 32
	// AdaptiveExplorationFloor is the minimum share every arm keeps; the
	// replicator fixed point for a strictly dominant arm is therefore
	// 1 − (arms−1)·floor, which is what the arms-race driver measures
	// convergence distance against.
	AdaptiveExplorationFloor = 0.02
	// Arm payoffs per routed SYN-ACK: an unchallenged handshake is a full
	// win (the accept queue takes the hit for free), a challenge means the
	// defense deflected the action onto the bot's CPU.
	rewardUnchallenged = 1.0
	rewardChallenged   = 0.25
)

// AdaptiveFlood reallocates one bot's budget across the basic flood
// behaviours — spoofed SYN flood, connection flood, pulse flood — by
// discrete replicator dynamics (game.ReplicatorStep). Each Tick draws one
// arm from the current share vector and delegates to that arm's behaviour;
// feedback is attributed per arm by intercepting handshake registration,
// so a SYN-ACK routed back to the bot credits exactly the arm that opened
// the handshake.
//
// Spoofed arms never receive feedback (replies to forged sources do not
// route back), so their observable payoff is zero: whenever a real-address
// arm earns any reward the spoofed shares decay toward the exploration
// floor, and when nothing earns feedback the shares hold still. The
// solution/replay floods are deliberately not arms: their fabrication path
// draws bulk bytes via rand.Read, which the macro fleet's compact
// per-source streams do not reproduce draw for draw.
type AdaptiveFlood struct {
	arms      []Strategy
	names     []sweep.Attack
	shares    []float64
	actions   []float64
	rewards   []float64
	armByPort map[uint32]int // keyed by uint32: maps have no 16-bit fast path
	ticks     int
	trace     [][]float64
}

var adaptiveFloodInfo = Info{
	Name:    sweep.AttackAdaptiveFlood,
	Summary: "replicator dynamics reallocating budget across syn/conn/pulse floods",
}

func init() {
	// The factory must not draw from the bot's RNG: the fleet creates a
	// bot's instance lazily, after its start-jitter draw, and the pinned
	// adaptive-flood cells were recorded with a factory that draws
	// nothing.
	Register(adaptiveFloodInfo, func(BotCtx) Strategy { return NewAdaptiveFlood() })
}

// NewAdaptiveFlood returns a fresh learner with uniform shares.
func NewAdaptiveFlood() *AdaptiveFlood {
	arms := []Strategy{synFlood{}, connFlood{}, pulseFlood{}}
	names := []sweep.Attack{sweep.AttackSYNFlood, sweep.AttackConnFlood, sweep.AttackPulseFlood}
	return &AdaptiveFlood{
		arms:      arms,
		names:     names,
		shares:    game.UniformShares(len(arms)),
		actions:   make([]float64, len(arms)),
		rewards:   make([]float64, len(arms)),
		armByPort: map[uint32]int{},
	}
}

// Tick implements Strategy: close the epoch if due, then draw an arm from
// the current shares (exactly one RNG draw before delegation) and fire its
// action.
func (f *AdaptiveFlood) Tick(ctx BotCtx) {
	if f.ticks > 0 && f.ticks%AdaptiveEpochTicks == 0 {
		f.closeEpoch()
	}
	f.ticks++
	arm := f.pick(ctx.Rand().Float64())
	f.actions[arm]++
	f.arms[arm].Tick(armCtx{BotCtx: ctx, flood: f, arm: arm})
}

// OnSynAck implements Strategy: credit the arm that opened the handshake,
// then let that arm's own completion logic run.
func (f *AdaptiveFlood) OnSynAck(ctx BotCtx, sa SynAck) {
	arm, ok := f.armByPort[uint32(sa.Port)]
	if !ok {
		return
	}
	delete(f.armByPort, uint32(sa.Port))
	if sa.Challenged {
		f.rewards[arm] += rewardChallenged
	} else {
		f.rewards[arm] += rewardUnchallenged
	}
	f.arms[arm].OnSynAck(ctx, sa)
}

// OnSolved implements Strategy: only the connection-flood arm solves.
func (*AdaptiveFlood) OnSolved(ctx BotCtx, sa SynAck) { connFlood{}.OnSolved(ctx, sa) }

// pick maps one uniform draw to an arm index by walking the share CDF.
func (f *AdaptiveFlood) pick(u float64) int {
	var cum float64
	for i, s := range f.shares {
		cum += s
		if u < cum {
			return i
		}
	}
	return len(f.shares) - 1
}

// closeEpoch converts the epoch's per-arm reward rates into one replicator
// step and records the new share vector on the trace.
func (f *AdaptiveFlood) closeEpoch() {
	payoffs := make([]float64, len(f.arms))
	for i := range payoffs {
		if f.actions[i] > 0 {
			payoffs[i] = f.rewards[i] / f.actions[i]
		}
	}
	next, err := game.ReplicatorStep(f.shares, payoffs, AdaptiveExplorationFloor)
	if err == nil {
		f.shares = next
	}
	for i := range f.actions {
		f.actions[i], f.rewards[i] = 0, 0
	}
	f.trace = append(f.trace, append([]float64(nil), f.shares...))
}

// ArmNames lists the flood kinds the learner allocates across, index
// aligned with Shares and ShareTrace rows.
func (f *AdaptiveFlood) ArmNames() []sweep.Attack {
	return append([]sweep.Attack(nil), f.names...)
}

// Shares returns a copy of the current budget-share vector.
func (f *AdaptiveFlood) Shares() []float64 {
	return append([]float64(nil), f.shares...)
}

// ShareTrace returns the share vector recorded after every replicator
// epoch, oldest first.
func (f *AdaptiveFlood) ShareTrace() [][]float64 {
	out := make([][]float64, len(f.trace))
	for i, row := range f.trace {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// armCtx attributes handshake registration to the arm whose action is in
// flight, so the SYN-ACK (or its absence) scores the right strategy.
type armCtx struct {
	BotCtx
	flood *AdaptiveFlood
	arm   int
}

// ExpectSynAck records which arm opened the handshake before registering
// it with the bot core.
func (c armCtx) ExpectSynAck(port uint16, isn uint32) {
	c.flood.armByPort[uint32(port)] = c.arm
	c.BotCtx.ExpectSynAck(port, isn)
}
