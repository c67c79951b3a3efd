// Package attacksim models the paper's attacking machines. A Bot is the
// simulator core — deterministic RNG, CPU model, access link, handshake
// bookkeeping — while its behaviour is an attack-strategy plugin resolved
// from the attack registry by Config.Attack (spoofed SYN floods,
// connection floods in solving and non-solving variants, solution floods,
// replay floods, and anything else registered; see package attack).
// Botnet builds fleets of identically configured bots.
package attacksim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/tcppuzzles/tcppuzzles/attack"
	"github.com/tcppuzzles/tcppuzzles/internal/cpumodel"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/internal/xrand"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// Metrics is the bot measurement state (defined in package attack so
// strategies account into it through the BotCtx facade).
type Metrics = attack.Metrics

// Config describes one bot.
type Config struct {
	// Addr is the bot's real address.
	Addr [4]byte
	// ServerAddr and ServerPort locate the victim.
	ServerAddr [4]byte
	ServerPort uint16

	// Attack names the behaviour in the attack registry
	// (sweep.AttackSYNFlood, sweep.AttackConnFlood, ...). Empty selects
	// the spoofed SYN flood.
	Attack sweep.Attack
	// Rate is the constant attack rate in packets (attempts) per second.
	Rate float64
	// StartAt and StopAt bound the attack interval.
	StartAt, StopAt time.Duration

	// Solves makes a connection-flood bot run the patched kernel and
	// genuinely solve challenges (rate limited by its CPU).
	Solves bool
	// SimulatedCrypto pairs with the server's simulated engine.
	SimulatedCrypto bool
	// Device models the bot CPU.
	Device cpumodel.Device
	// MaxSolveBacklog, when positive, makes the bot discard challenges
	// once its CPU is committed further than this into the future — a
	// "smart" attacker that keeps its solutions fresh. The default (zero)
	// is the greedy flooding tool: every challenge is queued, the solve
	// backlog quickly exceeds the server's replay window, and most
	// solutions arrive expired — the dynamic that collapses the effective
	// attack rate in §6.2.
	MaxSolveBacklog time.Duration

	// Seed drives deterministic randomness.
	Seed int64
	// MetricBucket is the metric bucket width.
	MetricBucket time.Duration

	// CompactRNG draws the bot's randomness (jitter, spoofed addresses,
	// ISNs) from the 8-byte splitmix source macro fleets use instead of
	// the ~5 KB default source. Different stream, same determinism; it
	// exists so a per-bot run can be compared draw-for-draw against the
	// macro-aggregated execution of the same scenario.
	CompactRNG bool
}

func (c *Config) fillDefaults() {
	if c.ServerPort == 0 {
		c.ServerPort = 80
	}
	if c.Attack == "" {
		c.Attack = sweep.AttackSYNFlood
	}
	if c.Device.HashRate == 0 {
		c.Device = cpumodel.CPU1
	}
	if c.MetricBucket == 0 {
		c.MetricBucket = time.Second
	}
	if c.StopAt == 0 {
		c.StopAt = 1<<62 - 1
	}
}

// Bot is one attacking machine.
type Bot struct {
	cfg Config
	eng *netsim.Engine
	net *netsim.Network
	rnd *rand.Rand

	strategy attack.Strategy

	isns     *tcpkit.ISNSource
	cpu      *cpumodel.CPU
	nextPort uint32
	// awaiting maps port → client ISN for in-flight handshakes, the port
	// widened to uint32: Go's maps have fast paths for 32- and 64-bit keys
	// but none for 16-bit ones.
	awaiting map[uint32]uint32

	// solves holds the challenges queued on the CPU model; only its head
	// is an engine event. tickFn and solvedFn are b.tick and b.solved bound
	// once, so re-arming them allocates no method value per event.
	solves           netsim.RunQueue[solveJob]
	tickFn, solvedFn func()

	metrics *Metrics
}

// solveJob is one queued solve: the SYN-ACK that carried the challenge,
// flattened so the queue's chunks hold no pointers — nothing for the
// collector to scan.
type solveJob struct {
	port           uint16
	isn, serverISN uint32
	n              uint8 // bytes of challenge in use
	challenge      [tcpopt.MaxOptionsLen - 2]byte
}

// New builds a bot, resolves its attack strategy from the registry, and
// attaches it to the network.
func New(eng *netsim.Engine, network *netsim.Network, link netsim.LinkConfig, cfg Config) (*Bot, error) {
	cfg.fillDefaults()
	rnd := rand.New(rand.NewSource(cfg.Seed))
	isns := tcpkit.NewISNSource(cfg.Seed + 13)
	if cfg.CompactRNG {
		rnd = rand.New(xrand.New(cfg.Seed))
		isns = tcpkit.NewISNSourceFrom(xrand.New(cfg.Seed + 13))
	}
	b := &Bot{
		cfg:      cfg,
		eng:      eng,
		net:      network,
		rnd:      rnd,
		isns:     isns,
		cpu:      cpumodel.NewCPU(cfg.Device, cfg.MetricBucket),
		nextPort: 20000,
		awaiting: make(map[uint32]uint32),
		metrics:  attack.NewMetrics(cfg.MetricBucket),
	}
	strategy, err := attack.New(cfg.Attack, botCtx{b})
	if err != nil {
		return nil, fmt.Errorf("attacksim: %w", err)
	}
	b.strategy = strategy
	b.tickFn, b.solvedFn = b.tick, b.solved
	if err := network.Attach(b, link); err != nil {
		return nil, fmt.Errorf("attacksim: %w", err)
	}
	if cfg.Rate > 0 {
		// Jitter the start so bots don't tick in lockstep.
		jitter := time.Duration(b.rnd.Int63n(int64(time.Second / 4)))
		eng.ScheduleAt(cfg.StartAt+jitter, b.tickFn)
	}
	return b, nil
}

// Addr implements netsim.Node.
func (b *Bot) Addr() netsim.Addr { return b.cfg.Addr }

// Metrics exposes the bot measurements.
func (b *Bot) Metrics() *Metrics { return b.metrics }

// CPU exposes the bot CPU model.
func (b *Bot) CPU() *cpumodel.CPU { return b.cpu }

// Strategy exposes the instantiated attack behaviour.
func (b *Bot) Strategy() attack.Strategy { return b.strategy }

// QueuedSolves is the number of challenges waiting on the bot's CPU, the
// one being solved included.
func (b *Bot) QueuedSolves() int { return b.solves.Len() }

// tick drives the strategy at the configured constant rate.
func (b *Bot) tick() {
	now := b.eng.Now()
	if now >= b.cfg.StopAt {
		return
	}
	b.strategy.Tick(botCtx{b})
	b.eng.Schedule(time.Duration(float64(time.Second)/b.cfg.Rate), b.tickFn)
}

// solved fires when the CPU finishes the solve at the head of the queue:
// it hands the SYN-ACK back to the strategy that queued it.
func (b *Bot) solved() {
	job := b.solves.Pop(b.eng, b.solvedFn)
	b.strategy.OnSolved(botCtx{b}, attack.SynAck{
		Port: job.port, ISN: job.isn, ServerISN: job.serverISN,
		Challenge:  tcpopt.Option{Kind: tcpopt.KindChallenge, Data: job.challenge[:job.n]},
		Challenged: true,
	})
}

// Handle implements netsim.Node: filter server traffic, account deception
// reveals, match SYN-ACKs to in-flight handshakes, and hand the result to
// the strategy.
func (b *Bot) Handle(seg tcpkit.Segment) {
	if seg.Src != b.cfg.ServerAddr || seg.SrcPort != b.cfg.ServerPort {
		return
	}
	if seg.Flags.Has(tcpkit.FlagRST) {
		b.metrics.RSTsReceived++
		return
	}
	if !seg.Flags.Has(tcpkit.FlagSYN | tcpkit.FlagACK) {
		return
	}
	isn, ok := b.awaiting[uint32(seg.DstPort)]
	if !ok {
		return
	}
	delete(b.awaiting, uint32(seg.DstPort))

	chOpt, challenged, _ := tcpopt.Lookup(seg.Options, tcpopt.KindChallenge)
	b.strategy.OnSynAck(botCtx{b}, attack.SynAck{
		Port: seg.DstPort, ISN: isn, ServerISN: seg.Seq,
		Challenge: chOpt, Challenged: challenged,
	})
}
