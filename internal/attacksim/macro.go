package attacksim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"github.com/tcppuzzles/tcppuzzles/attack"
	"github.com/tcppuzzles/tcppuzzles/internal/cpumodel"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/stats"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/internal/xrand"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// defaultBatchSize is how many sources one scheduled event advances. An
// execution-only knob: batching never changes per-source behaviour, only
// how many engine events carry it.
const defaultBatchSize = 1024

// MacroConfig describes a macro-aggregated source population — the same
// knobs as BotnetConfig, minus the per-bot objects.
type MacroConfig struct {
	// Sources is the population size (up to netsim.MaxSourceSlots).
	Sources int
	// BaseAddr is source 0's address; netsim.SourceAddr derives the rest.
	BaseAddr [4]byte
	// ServerAddr and ServerPort locate the victim.
	ServerAddr [4]byte
	ServerPort uint16
	// Attack, PerSourceRate, Solves, SimulatedCrypto, Devices configure
	// the sources exactly as BotnetConfig configures bots.
	Attack          sweep.Attack
	PerSourceRate   float64
	Solves          bool
	SimulatedCrypto bool
	MaxSolveBacklog time.Duration
	Devices         []cpumodel.Device
	// StartAt and StopAt bound the attack.
	StartAt, StopAt time.Duration
	// Link is the shared per-source access link.
	Link netsim.LinkConfig
	// Seed derives per-source seeds exactly as the botnet does
	// (Seed + i*101), so source i's RNG stream matches bot i's
	// CompactRNG stream.
	Seed int64
	// MetricBucket is the metric bucket width.
	MetricBucket time.Duration
	// BatchSize overrides how many sources one event drives (execution
	// knob only; zero = default).
	BatchSize int
}

// MacroFleet drives a large homogeneous source population with O(batches)
// scheduled events and a few flat arrays of per-source state, instead of
// a Bot object, RNG, and timer per source. Behaviour is the per-bot
// semantics reproduced exactly:
//
//   - tick times: per-bot ticks land at start_i + k·Δ (Δ repeated
//     addition of the same duration ≡ multiplication), so a batch event
//     can process source i's tick k at the virtual time start_i + k·Δ
//     without a per-source timer. Events emitted inside a batch carry
//     their virtual timestamps, which are ≥ the batch event's time, so
//     causality and the sharded engine's conservative windows hold.
//   - randomness: per-source splitmix streams (8 bytes each) swapped
//     through one shared rand.Rand wrapper; stream i is identical to a
//     CompactRNG bot seeded Seed + i*101.
//   - identity: addresses materialise only in the canonical delivery key
//     via the netsim.SourceStore; nothing per-source is heap-allocated.
//
// One shared rand.Rand wrapper means rand.Rand's internal Read buffer is
// not per-source: strategies drawing bytes via Rand().Read (the solution
// flood's fabricated solutions) stay deterministic but interleave that
// buffer across sources, so they are not draw-for-draw identical to
// per-bot runs — the Read-free spoofed floods (synflood, pulseflood) are.
type MacroFleet struct {
	cfg     MacroConfig
	eng     *netsim.Engine
	store   *netsim.SourceStore
	devices []cpumodel.Device

	period time.Duration
	start  []time.Duration // per-source first tick (StartAt + jitter)

	// Lazy-swap RNG: one wrapper, one state word per source.
	rngState []uint64
	rngSrc   *xrand.SplitMix
	rnd      *rand.Rand
	rngSlot  int32

	// Same scheme for the ISN stream (seed_i + 13, as per-bot).
	isnState []uint64
	isnSrc   *xrand.SplitMix
	isns     *tcpkit.ISNSource
	isnSlot  int32

	// shared is the single strategy instance used for every source when
	// the registered strategy is a stateless value; pointer-typed
	// (stateful) strategies get a lazily filled per-source slice instead.
	shared     attack.Strategy
	strategies []attack.Strategy

	// Lazily allocated per-source state, only paid for by strategies
	// that use it.
	nextPort  []uint32
	cpuFreeAt []time.Duration
	cpuBusy   *stats.Series

	// awaiting maps (slot, port) → client ISN for in-flight handshakes;
	// bounded by concurrently awaited SYN-ACKs, not population size.
	awaiting map[uint64]uint32

	metrics *Metrics
}

// NewMacroFleet attaches the population to the network and schedules its
// batch events. Like all attaches it must precede the first run.
func NewMacroFleet(network *netsim.Network, cfg MacroConfig) (*MacroFleet, error) {
	if cfg.Sources <= 0 {
		return nil, fmt.Errorf("attacksim: macro fleet size %d", cfg.Sources)
	}
	if cfg.ServerPort == 0 {
		cfg.ServerPort = 80
	}
	if cfg.Attack == "" {
		cfg.Attack = sweep.AttackSYNFlood
	}
	if cfg.MetricBucket == 0 {
		cfg.MetricBucket = time.Second
	}
	if cfg.StopAt == 0 {
		cfg.StopAt = 1<<62 - 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = defaultBatchSize
	}
	devices := cfg.Devices
	if len(devices) == 0 {
		devices = cpumodel.ClientCPUs()
	}
	link := cfg.Link
	if link.RateBps == 0 {
		link = netsim.DefaultHostLink()
	}
	f := &MacroFleet{
		cfg:      cfg,
		devices:  devices,
		rngSrc:   xrand.New(0),
		isnSrc:   xrand.New(0),
		rngSlot:  -1,
		isnSlot:  -1,
		awaiting: make(map[uint64]uint32),
		metrics:  attack.NewMetrics(cfg.MetricBucket),
		cpuBusy:  stats.NewSeries(cfg.MetricBucket),
	}
	f.rnd = rand.New(f.rngSrc)
	f.isns = tcpkit.NewISNSourceFrom(f.isnSrc)

	// Resolve the strategy once to validate the name and decide the
	// instance policy: a value instance is stateless and shared by every
	// source; a pointer instance is per-source state and gets a slot slice.
	probe, err := attack.New(cfg.Attack, macroCtx{f: f})
	if err != nil {
		return nil, fmt.Errorf("attacksim: %w", err)
	}
	if reflect.TypeOf(probe).Kind() == reflect.Ptr {
		f.strategies = make([]attack.Strategy, cfg.Sources)
	} else {
		f.shared = probe
	}

	store, err := network.AttachSources(cfg.Sources, cfg.BaseAddr, link, f.handle)
	if err != nil {
		return nil, fmt.Errorf("attacksim: %w", err)
	}
	f.store = store
	f.eng = store.Engine()

	// Per-source RNG states and start jitter, drawn exactly as a
	// CompactRNG bot would: the jitter is the stream's first draw.
	f.rngState = make([]uint64, cfg.Sources)
	for i := 0; i < cfg.Sources; i++ {
		f.rngState[i] = uint64(cfg.Seed + int64(i)*101)
	}
	if cfg.PerSourceRate > 0 {
		f.period = time.Duration(float64(time.Second) / cfg.PerSourceRate)
		f.start = make([]time.Duration, cfg.Sources)
		for i := 0; i < cfg.Sources; i++ {
			f.rngSrc.SetState(f.rngState[i])
			jitter := time.Duration(f.rnd.Int63n(int64(time.Second / 4)))
			f.rngState[i] = f.rngSrc.State()
			f.start[i] = cfg.StartAt + jitter
		}
		f.scheduleBatches()
	}
	return f, nil
}

// scheduleBatches sorts sources by first-tick time and schedules one
// recurring event per contiguous batch. Batch composition is a pure
// function of (seed, size), never of shard layout.
func (f *MacroFleet) scheduleBatches() {
	order := make([]int32, f.cfg.Sources)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := f.start[order[a]], f.start[order[b]]
		if sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})
	for lo := 0; lo < len(order); lo += f.cfg.BatchSize {
		hi := lo + f.cfg.BatchSize
		if hi > len(order) {
			hi = len(order)
		}
		b := &macroBatch{f: f, slots: order[lo:hi]}
		f.eng.ScheduleAt(f.start[b.slots[0]], b.run)
	}
}

// macroBatch advances one slice of the jitter-sorted population: round k
// ticks every slot at its virtual time start + k·Δ. The event fires at
// the batch's earliest member time; later members tick "in the future"
// of the event, which is safe — emissions carry their virtual timestamps.
type macroBatch struct {
	f     *MacroFleet
	slots []int32
	round int64
}

func (b *macroBatch) run() {
	f := b.f
	offset := time.Duration(b.round) * f.period
	if f.start[b.slots[0]]+offset >= f.cfg.StopAt {
		// The first slot has the batch's earliest start, so the whole
		// round — and every later round — is past StopAt: retire.
		return
	}
	for _, slot := range b.slots {
		t := f.start[slot] + offset
		if t >= f.cfg.StopAt {
			// Sorted by start: the rest of this round is past StopAt,
			// but earlier slots may still tick next round.
			break
		}
		f.tickSlot(slot, t)
	}
	b.round++
	f.eng.ScheduleAt(f.start[b.slots[0]]+time.Duration(b.round)*f.period, b.run)
}

// tickSlot runs one source's strategy tick at virtual time t.
func (f *MacroFleet) tickSlot(slot int32, t time.Duration) {
	ctx := macroCtx{f: f, slot: slot, vt: t}
	f.strategyFor(slot, ctx).Tick(ctx)
}

// strategyFor returns the slot's strategy instance: the shared stateless
// value, or the lazily created per-slot instance for stateful strategies.
func (f *MacroFleet) strategyFor(slot int32, ctx macroCtx) attack.Strategy {
	if f.shared != nil {
		return f.shared
	}
	s := f.strategies[slot]
	if s == nil {
		// The probe validated the name; a second New cannot fail.
		s, _ = attack.New(f.cfg.Attack, ctx)
		f.strategies[slot] = s
	}
	return s
}

// handle is the store's delivery callback: Bot.Handle over flat state.
func (f *MacroFleet) handle(slot int32, seg tcpkit.Segment) {
	if seg.Src != f.cfg.ServerAddr || seg.SrcPort != f.cfg.ServerPort {
		return
	}
	if seg.Flags.Has(tcpkit.FlagRST) {
		f.metrics.RSTsReceived++
		return
	}
	if !seg.Flags.Has(tcpkit.FlagSYN | tcpkit.FlagACK) {
		return
	}
	key := awaitKey(slot, seg.DstPort)
	isn, ok := f.awaiting[key]
	if !ok {
		return
	}
	delete(f.awaiting, key)

	chOpt, challenged, _ := tcpopt.Lookup(seg.Options, tcpopt.KindChallenge)
	ctx := macroCtx{f: f, slot: slot, vt: f.eng.Now()}
	f.strategyFor(slot, ctx).OnSynAck(ctx, attack.SynAck{
		Port: seg.DstPort, ISN: isn, ServerISN: seg.Seq,
		Challenge: chOpt, Challenged: challenged,
	})
}

func awaitKey(slot int32, port uint16) uint64 {
	return uint64(uint32(slot))<<16 | uint64(port)
}

// Size returns the population size.
func (f *MacroFleet) Size() int { return f.cfg.Sources }

// Metrics exposes the fleet-aggregate attack metrics.
func (f *MacroFleet) Metrics() *Metrics { return f.metrics }

// Store exposes the backing netsim source store.
func (f *MacroFleet) Store() *netsim.SourceStore { return f.store }

// Contains reports whether addr belongs to the population — the server-
// side metrics aggregation predicate.
func (f *MacroFleet) Contains(addr [4]byte) bool { return f.store.Contains(addr) }

// SentRate is the measured aggregate attack packet rate per second —
// integer bucket sums, so it equals the per-bot fleet aggregation
// bit-for-bit.
func (f *MacroFleet) SentRate(until time.Duration) []float64 {
	return f.metrics.Sent.RatePerSecond(until)
}

// TotalSent sums attack packets over [from, to).
func (f *MacroFleet) TotalSent(from, to time.Duration) float64 {
	return f.metrics.Sent.SumRange(from, to)
}

// MeanCPUUtilisation is the population-mean CPU utilisation per bucket.
// Busy time is accumulated fleet-wide, so unlike the per-bot mean an
// individually saturated source is not clamped at 100% before averaging —
// identical when sources stay below saturation.
func (f *MacroFleet) MeanCPUUtilisation(until time.Duration) []float64 {
	vals := f.cpuBusy.Values(until)
	out := make([]float64, len(vals))
	scale := 100 / f.cfg.MetricBucket.Seconds() / float64(f.cfg.Sources)
	for i, v := range vals {
		out[i] = v * scale
	}
	return out
}

// macroCtx is the attack.BotCtx facade over one source slot at a virtual
// instant. It is a value: strategy closures capture the (slot, vt) pair,
// and Now() returns the later of the virtual time and the engine clock,
// so a closure firing after its batch event sees real time exactly as a
// per-bot closure would.
type macroCtx struct {
	f    *MacroFleet
	slot int32
	vt   time.Duration
}

var _ attack.BotCtx = macroCtx{}

// Now implements attack.BotCtx.
func (c macroCtx) Now() time.Duration {
	if now := c.f.eng.Now(); now > c.vt {
		return now
	}
	return c.vt
}

// Rand implements attack.BotCtx: the shared wrapper over this slot's
// splitmix state, swapped in on slot change.
func (c macroCtx) Rand() *rand.Rand {
	f := c.f
	if f.rngSlot != c.slot {
		if f.rngSlot >= 0 {
			f.rngState[f.rngSlot] = f.rngSrc.State()
		}
		f.rngSrc.SetState(f.rngState[c.slot])
		f.rngSlot = c.slot
	}
	return f.rnd
}

// Addr implements attack.BotCtx.
func (c macroCtx) Addr() [4]byte { return c.f.store.Addr(c.slot) }

// ServerAddr implements attack.BotCtx.
func (c macroCtx) ServerAddr() [4]byte { return c.f.cfg.ServerAddr }

// ServerPort implements attack.BotCtx.
func (c macroCtx) ServerPort() uint16 { return c.f.cfg.ServerPort }

// AttackWindow implements attack.BotCtx.
func (c macroCtx) AttackWindow() (start, stop time.Duration) {
	return c.f.cfg.StartAt, c.f.cfg.StopAt
}

// Solves implements attack.BotCtx.
func (c macroCtx) Solves() bool { return c.f.cfg.Solves }

// SimulatedCrypto implements attack.BotCtx.
func (c macroCtx) SimulatedCrypto() bool { return c.f.cfg.SimulatedCrypto }

// MaxSolveBacklog implements attack.BotCtx.
func (c macroCtx) MaxSolveBacklog() time.Duration { return c.f.cfg.MaxSolveBacklog }

// NextISN implements attack.BotCtx: per-slot splitmix ISN stream seeded
// seed_i + 13, exactly as per-bot CompactRNG.
func (c macroCtx) NextISN() uint32 {
	f := c.f
	if f.isnState == nil {
		f.isnState = make([]uint64, f.cfg.Sources)
		for i := range f.isnState {
			f.isnState[i] = uint64(f.cfg.Seed + int64(i)*101 + 13)
		}
	}
	if f.isnSlot != c.slot {
		if f.isnSlot >= 0 {
			f.isnState[f.isnSlot] = f.isnSrc.State()
		}
		f.isnSrc.SetState(f.isnState[c.slot])
		f.isnSlot = c.slot
	}
	return f.isns.Next()
}

// NextPort implements attack.BotCtx.
func (c macroCtx) NextPort() uint16 {
	f := c.f
	if f.nextPort == nil {
		f.nextPort = make([]uint32, f.cfg.Sources)
		for i := range f.nextPort {
			f.nextPort[i] = 20000
		}
	}
	port := uint16(1024 + f.nextPort[c.slot]%60000)
	f.nextPort[c.slot]++
	return port
}

// ExpectSynAck implements attack.BotCtx.
func (c macroCtx) ExpectSynAck(port uint16, isn uint32) {
	c.f.awaiting[awaitKey(c.slot, port)] = isn
}

// EmitAttack implements attack.BotCtx.
func (c macroCtx) EmitAttack(seg tcpkit.Segment) {
	now := c.Now()
	c.f.metrics.Sent.Add(now, 1)
	c.f.store.SendAt(c.slot, now, seg)
}

// EmitSpoofed implements attack.BotCtx: SendAt already transmits through
// the slot's own uplink whatever the forged source claims.
func (c macroCtx) EmitSpoofed(seg tcpkit.Segment) {
	now := c.Now()
	c.f.metrics.Sent.Add(now, 1)
	c.f.store.SendAt(c.slot, now, seg)
}

// SendHandshakeAck implements attack.BotCtx.
func (c macroCtx) SendHandshakeAck(port uint16, isn, serverISN uint32, opts []byte) {
	f := c.f
	now := c.Now()
	f.metrics.AcksSent.Add(now, 1)
	f.metrics.BelievedEstablished++
	f.store.SendAt(c.slot, now, tcpkit.Segment{
		Src: f.store.Addr(c.slot), Dst: f.cfg.ServerAddr,
		SrcPort: port, DstPort: f.cfg.ServerPort,
		Seq: isn + 1, Ack: serverISN + 1,
		Flags:   tcpkit.FlagACK,
		Options: opts,
	})
}

// Solve implements attack.BotCtx: cpumodel.CPU.Charge over a flat per-slot
// free-at array, with busy time accumulated fleet-wide. Completion times
// ascend per slot but not across the fleet, so each solve is scheduled
// directly instead of through one netsim.RunQueue.
func (c macroCtx) Solve(hashes float64, sa attack.SynAck) {
	f := c.f
	if f.cpuFreeAt == nil {
		f.cpuFreeAt = make([]time.Duration, f.cfg.Sources)
	}
	now := c.Now()
	start := now
	if free := f.cpuFreeAt[c.slot]; free > start {
		start = free
	}
	dev := f.devices[int(c.slot)%len(f.devices)]
	dur := dev.TimeFor(hashes)
	done := start + dur
	f.cpuBusy.AddSpan(start, done, dur.Seconds())
	f.cpuFreeAt[c.slot] = done
	f.eng.ScheduleAt(done, func() { f.strategyFor(c.slot, c).OnSolved(c, sa) })
}

// CPUBacklog implements attack.BotCtx.
func (c macroCtx) CPUBacklog() time.Duration {
	f := c.f
	if f.cpuFreeAt == nil {
		return 0
	}
	if free := f.cpuFreeAt[c.slot]; free > c.Now() {
		return free - c.Now()
	}
	return 0
}

// Metrics implements attack.BotCtx.
func (c macroCtx) Metrics() *attack.Metrics { return c.f.metrics }
