// Package attacksim models the paper's attacking machines: a botnet of N
// identical hosts, each with its own deterministic RNG, CPU model, access
// link and handshake bookkeeping, and an attack-strategy plugin resolved
// from the attack registry by MacroConfig.Attack (spoofed SYN floods,
// connection floods in solving and non-solving variants, solution floods,
// replay floods, and anything else registered; see package attack).
// MacroFleet runs the whole population over flat per-source arrays and a
// few batch events, from a handful of sources up to netsim.MaxSourceSlots.
package attacksim

import (
	"fmt"
	"math/rand"
	"reflect"
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

// defaultBatchSize is how many sources one scheduled event advances at
// most for a stateless (value-typed) strategy. A batch event ticks its slots at
// virtual times up to maxJitter past the event, so a slot can tick before
// the engine has delivered its own SYN-ACK or solve completion. A
// stateless strategy cannot tell; a stateful (pointer-typed) one reads
// what those deliveries left behind, so it gets one slot per event and
// ticks only after everything due before its tick has been delivered.
const defaultBatchSize = 1024

// Metrics is the attacker measurement state (defined in package attack so
// strategies account into it through the BotCtx facade).
type Metrics = attack.Metrics

// MacroConfig describes an attacking population of identical sources.
type MacroConfig struct {
	// Sources is the population size (up to netsim.MaxSourceSlots).
	Sources int
	// BaseAddr is source 0's address; netsim.SourceAddr derives the rest.
	BaseAddr [4]byte
	// ServerAddr and ServerPort locate the victim.
	ServerAddr [4]byte
	ServerPort uint16
	// Attack names the behaviour in the attack registry; empty selects
	// the spoofed SYN flood. PerSourceRate is each source's attack rate
	// in attempts per second. Solves makes connection-flood sources run
	// the patched kernel and solve challenges, rate limited by their
	// CPUs: source i gets cpumodel.ClientCPUs()[i % n], the paper's
	// "similar or better" provisioning, and answers each challenge with
	// its canonical simulated solution (see internal/pzengine).
	Attack        sweep.Attack
	PerSourceRate float64
	Solves        bool
	// SimulatedCrypto is read by nothing: solving sources always send
	// simulated solutions.
	//
	// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
	SimulatedCrypto bool
	// MaxSolveBacklog, when positive, makes a source discard challenges
	// once its CPU is committed further than this into the future — a
	// "smart" attacker that keeps its solutions fresh. The default (zero)
	// is the greedy flooding tool: every challenge is queued, the solve
	// backlog quickly exceeds the server's replay window, and most
	// solutions arrive expired — the dynamic that collapses the effective
	// attack rate in §6.2.
	MaxSolveBacklog time.Duration
	// StartAt and StopAt bound the attack.
	StartAt, StopAt time.Duration
	// Link is the shared per-source access link; zero selects the
	// default host link.
	Link netsim.LinkConfig
	// Seed derives source i's RNG seed, Seed + i*101, and its ISN seed,
	// 13 past that.
	Seed int64
	// MetricBucket is the metric bucket width.
	MetricBucket time.Duration
	// batchSize overrides how many sources one event drives; zero
	// derives it from the strategy (see defaultBatchSize).
	batchSize int
}

// MacroFleet drives a homogeneous source population with O(batches)
// scheduled events and a few flat arrays of per-source state, instead of
// an object, RNG and timer per source. Each source behaves as a host of
// its own would:
//
//   - tick times: source i ticks at start_i + k·Δ, so a batch event can
//     process source i's tick k at that virtual time without a
//     per-source timer. Events emitted inside a batch carry their virtual
//     timestamps, which are ≥ the batch event's time, so causality holds.
//   - randomness: per-source splitmix streams (8 bytes each) swapped
//     through one shared rand.Rand wrapper, seeded Seed + i*101.
//   - CPU: each source's solves queue on its own modelled CPU, only the
//     head of each queue an engine event (see slotSolves).
//   - identity: addresses exist only in the canonical delivery key
//     via the netsim.SourceStore; nothing per-source is heap-allocated
//     until a strategy needs it.
//
// Per-source state lives in slots numbered in first-tick order (see
// order), so a batch is a contiguous slot range and a round reads every
// per-slot array front to back. What derives from a source — its address,
// RNG and ISN seeds, device — follows its population index
// (store.Source), never its slot.
//
// One shared rand.Rand wrapper means rand.Rand's internal Read buffer is
// not per-source: a strategy drawing bytes via Rand().Read (the solution
// flood's fabricated solutions) stays deterministic but interleaves that
// buffer across sources. The server rejects every such forgery alike.
type MacroFleet struct {
	cfg     MacroConfig
	eng     *netsim.Engine
	store   *netsim.SourceStore
	devices []cpumodel.Device

	period time.Duration
	// jitter[slot] is the slot's first tick past StartAt, ascending.
	jitter []uint32

	// Lazy-swap RNG: one wrapper, one state word per source.
	rngState []uint64
	rngSrc   *xrand.SplitMix
	rnd      *rand.Rand
	rngSlot  int32

	// Same scheme for the ISN stream (seed_i + 13).
	isnState []uint64
	isnSrc   *xrand.SplitMix
	isns     *tcpkit.ISNSource
	isnSlot  int32

	// shared is the single strategy instance used for every source when
	// the registered strategy is a stateless value; pointer-typed
	// (stateful) strategies get a lazily filled per-source slice instead.
	shared     attack.Strategy
	strategies []attack.Strategy
	// newStrategy builds each stateful source's instance.
	newStrategy attack.Factory

	// Lazily allocated per-source state, only paid for by strategies
	// that use it.
	nextPort []uint32
	solves   []*slotSolves
	cpuBusy  *stats.Series

	// awaiting maps (slot, port) → client ISN for in-flight handshakes;
	// bounded by concurrently awaited SYN-ACKs, not population size.
	awaiting map[uint64]uint32

	metrics *Metrics

	// ctx is the facade every strategy hook runs under, re-aimed at the
	// slot and instant of each call (see macroCtx).
	ctx macroCtx
}

// NewMacroFleet attaches the population to the network and schedules its
// batch events. Like all attaches it must precede the first run.
func NewMacroFleet(network *netsim.Network, cfg MacroConfig) (*MacroFleet, error) {
	if cfg.Sources <= 0 {
		return nil, fmt.Errorf("attacksim: macro fleet size %d", cfg.Sources)
	}
	var period time.Duration
	if cfg.PerSourceRate > 0 {
		period = time.Duration(float64(time.Second) / cfg.PerSourceRate)
		if period == 0 {
			// Every batch round would re-fire at the instant it ran.
			return nil, fmt.Errorf("attacksim: per-source rate %v/s ticks more than once per nanosecond", cfg.PerSourceRate)
		}
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
	link := cfg.Link
	if link.RateBps == 0 {
		link = netsim.DefaultHostLink()
	}
	f := &MacroFleet{
		cfg:      cfg,
		period:   period,
		devices:  cpumodel.ClientCPUs(),
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
	f.ctx.f = f

	// Resolve the factory once, and let one probe instance decide the
	// instance policy: a value instance is stateless, shared by every
	// source and batched; a pointer instance is per-source state, gets a
	// slot slice and one slot per event.
	_, newStrategy, err := attack.Lookup(cfg.Attack)
	if err != nil {
		return nil, fmt.Errorf("attacksim: %w", err)
	}
	f.newStrategy = newStrategy
	probe := newStrategy(&f.ctx)
	if reflect.TypeOf(probe).Kind() == reflect.Ptr {
		f.strategies = make([]attack.Strategy, cfg.Sources)
	} else {
		f.shared = probe
	}
	if f.cfg.batchSize <= 0 {
		f.cfg.batchSize = defaultBatchSize
		if f.strategies != nil {
			f.cfg.batchSize = 1
		}
	}

	store, err := network.AttachSources(cfg.Sources, cfg.BaseAddr, link, f.handle)
	if err != nil {
		return nil, fmt.Errorf("attacksim: %w", err)
	}
	f.store = store
	f.eng = network.Eng

	if period > 0 {
		if err := f.order(); err != nil {
			return nil, fmt.Errorf("attacksim: %w", err)
		}
		f.scheduleBatches()
	} else {
		f.rngState = make([]uint64, cfg.Sources)
		for i := range f.rngState {
			f.rngState[i] = uint64(cfg.Seed + int64(i)*101)
		}
	}
	return f, nil
}

// maxJitter bounds a source's first tick past StartAt.
const maxJitter = time.Second / 4

// A first-tick key packs a source's jitter above its population index.
const (
	keyIndexBits  = 24 // netsim.MaxSourceSlots-1 fits
	keyJitterBits = 28 // maxJitter-1 fits
	keyIndexMask  = 1<<keyIndexBits - 1
)

// Compile-time checks that both fields fit.
const (
	_ = uint(1<<keyIndexBits - netsim.MaxSourceSlots)
	_ = uint(1<<keyJitterBits - maxJitter)
)

// order draws every source's start jitter — the first draw of its RNG
// stream — and numbers the slots in
// first-tick order: slot r holds the source with the r-th earliest first
// tick, ties in source order. The store learns the numbering; the fleet
// keeps each slot's jitter and its stream's state after the draw.
func (f *MacroFleet) order() error {
	n := f.cfg.Sources
	keys := make([]uint64, n)
	drawn := make([]uint64, n) // stream state after the jitter, by source
	for i := range keys {
		f.rngSrc.SetState(uint64(f.cfg.Seed + int64(i)*101))
		keys[i] = uint64(f.rnd.Int63n(int64(maxJitter)))<<keyIndexBits | uint64(i)
		drawn[i] = f.rngSrc.State()
	}
	f.rngState = make([]uint64, n)
	sortFirstTicks(keys, f.rngState)
	order := make([]int32, n)
	f.jitter = make([]uint32, n)
	for r, k := range keys {
		src := int32(k & keyIndexMask)
		order[r] = src
		f.jitter[r] = uint32(k >> keyIndexBits)
		f.rngState[r] = drawn[src]
	}
	return f.store.Renumber(order)
}

// sortFirstTicks sorts first-tick keys, given in source order, by jitter:
// an LSD radix sort over the 28 jitter bits in four 7-bit digits. Each
// pass is stable, so equal jitters keep source order. scratch is a buffer
// as long as keys; the even number of passes leaves the result in keys.
func sortFirstTicks(keys, scratch []uint64) {
	const digitBits = 7
	src, dst := keys, scratch
	for shift := keyIndexBits; shift < keyIndexBits+keyJitterBits; shift += digitBits {
		var at [1 << digitBits]int
		for _, k := range src {
			at[k>>shift&(1<<digitBits-1)]++
		}
		pos := 0
		for d, c := range at {
			at[d] = pos
			pos += c
		}
		for _, k := range src {
			d := k >> shift & (1<<digitBits - 1)
			dst[at[d]] = k
			at[d]++
		}
		src, dst = dst, src
	}
}

// scheduleBatches schedules one recurring event per contiguous batch of
// slots. A batch also ends where its first ticks span a whole period: a
// member's sends wait in the timer heap until its virtual time, so a
// batch spanning s periods keeps s rounds of them pending, where members
// with timers of their own would keep one each. Batch composition is a
// pure function of (seed, size, rate).
func (f *MacroFleet) scheduleBatches() {
	for lo := 0; lo < f.cfg.Sources; {
		hi := lo + 1
		for hi < min(lo+f.cfg.batchSize, f.cfg.Sources) && time.Duration(f.jitter[hi]-f.jitter[lo]) < f.period {
			hi++
		}
		b := &macroBatch{f: f, lo: int32(lo), hi: int32(hi)}
		b.fn = b.run
		f.eng.ScheduleAt(f.cfg.StartAt+time.Duration(f.jitter[lo]), b.fn)
		lo = hi
	}
}

// macroBatch advances the slots [lo, hi): round k ticks every slot at its
// virtual time StartAt + k·Δ + jitter. The event fires at the batch's
// earliest member time; later members tick "in the future" of the event,
// which is safe — emissions carry their virtual timestamps.
type macroBatch struct {
	f      *MacroFleet
	lo, hi int32
	round  int64
	fn     func() // run, bound once for every round's ScheduleAt
}

func (b *macroBatch) run() {
	f := b.f
	base := f.cfg.StartAt + time.Duration(b.round)*f.period
	if base+time.Duration(f.jitter[b.lo]) >= f.cfg.StopAt {
		// The first slot has the batch's earliest start, so the whole
		// round — and every later round — is past StopAt: retire.
		return
	}
	for slot := b.lo; slot < b.hi; slot++ {
		t := base + time.Duration(f.jitter[slot])
		if t >= f.cfg.StopAt {
			// Sorted by start: the rest of this round is past StopAt,
			// but earlier slots may still tick next round.
			break
		}
		f.tickSlot(slot, t)
	}
	b.round++
	f.eng.ScheduleAt(base+f.period+time.Duration(f.jitter[b.lo]), b.fn)
}

// tickSlot runs one source's strategy tick at virtual time t.
func (f *MacroFleet) tickSlot(slot int32, t time.Duration) {
	f.ctx.slot, f.ctx.vt = slot, t
	f.strategyFor(slot).Tick(&f.ctx)
}

// strategyFor returns the slot's strategy instance: the shared stateless
// value, or the lazily created per-slot instance for stateful strategies.
func (f *MacroFleet) strategyFor(slot int32) attack.Strategy {
	if f.shared != nil {
		return f.shared
	}
	s := f.strategies[slot]
	if s == nil {
		s = f.newStrategy(&f.ctx)
		f.strategies[slot] = s
	}
	return s
}

// handle is the store's delivery callback: filter server traffic, account
// deception reveals, match SYN-ACKs to in-flight handshakes, and hand the
// result to the source's strategy.
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
	f.ctx.slot, f.ctx.vt = slot, f.eng.Now()
	f.strategyFor(slot).OnSynAck(&f.ctx, attack.SynAck{
		Port: seg.DstPort, ISN: isn, ServerISN: seg.Seq,
		Challenge: chOpt, Challenged: challenged,
	})
}

func awaitKey(slot int32, port uint16) uint64 {
	return uint64(uint32(slot))<<16 | uint64(port)
}

// slotSolves is one slot's modelled CPU: when it falls free, and the
// challenges queued on it, of which only the head is an engine event.
// fire is solved bound once, so re-arming allocates nothing per solve.
type slotSolves struct {
	f      *MacroFleet
	slot   int32
	freeAt time.Duration
	q      netsim.RunQueue[solveJob]
	fire   func()
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

// solvesFor returns the slot's CPU queue, allocating it on first use.
func (f *MacroFleet) solvesFor(slot int32) *slotSolves {
	if f.solves == nil {
		f.solves = make([]*slotSolves, f.cfg.Sources)
	}
	s := f.solves[slot]
	if s == nil {
		s = &slotSolves{f: f, slot: slot}
		s.fire = s.solved
		f.solves[slot] = s
	}
	return s
}

// solved fires when the slot's CPU finishes the solve at the head of its
// queue: it hands the SYN-ACK back to the strategy that queued it.
func (s *slotSolves) solved() {
	f := s.f
	job := s.q.Pop(f.eng, s.fire)
	f.ctx.slot, f.ctx.vt = s.slot, f.eng.Now()
	f.strategyFor(s.slot).OnSolved(&f.ctx, attack.SynAck{
		Port: job.port, ISN: job.isn, ServerISN: job.serverISN,
		Challenge:  tcpopt.Option{Kind: tcpopt.KindChallenge, Data: job.challenge[:job.n]},
		Challenged: true,
	})
}

// Size returns the population size.
func (f *MacroFleet) Size() int { return f.cfg.Sources }

// Metrics exposes the fleet-aggregate attack metrics.
func (f *MacroFleet) Metrics() *Metrics { return f.metrics }

// QueuedSolves is the number of challenges waiting on the sources' CPUs,
// the ones being solved included.
func (f *MacroFleet) QueuedSolves() int {
	n := 0
	for _, s := range f.solves {
		if s != nil {
			n += s.q.Len()
		}
	}
	return n
}

// Strategies returns every source's strategy instance in population
// order: index i is the source at SourceAddr(BaseAddr, i).
func (f *MacroFleet) Strategies() []attack.Strategy {
	out := make([]attack.Strategy, f.cfg.Sources)
	for slot := range out {
		out[f.store.Source(int32(slot))] = f.strategyFor(int32(slot))
	}
	return out
}

// Store exposes the backing netsim source store.
func (f *MacroFleet) Store() *netsim.SourceStore { return f.store }

// Contains reports whether addr belongs to the population — the server-
// side metrics aggregation predicate.
func (f *MacroFleet) Contains(addr [4]byte) bool { return f.store.Contains(addr) }

// SentRate is the measured (post-CPU-limiting) aggregate attack packet
// rate per second.
func (f *MacroFleet) SentRate(until time.Duration) []float64 {
	return f.metrics.Sent.RatePerSecond(until)
}

// TotalSent sums attack packets over [from, to).
func (f *MacroFleet) TotalSent(from, to time.Duration) float64 {
	return f.metrics.Sent.SumRange(from, to)
}

// MeanCPUUtilisation is the population-mean CPU utilisation per bucket.
// Busy time is accumulated in one fleet-wide series, not one per source.
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
// instant: a batch ticks its slots at their own times, ahead of the
// engine clock. Now() returns the later of the virtual time and the
// engine clock, so a hook running at or after its instant sees engine
// time. The fleet owns one, re-aimed at each hook call and passed as a
// pointer, so a call boxes nothing; that is safe because a BotCtx is
// valid only during the call it is passed to, and no hook runs inside
// another. What outlives a call — a queued solve — keeps its own slot.
type macroCtx struct {
	f    *MacroFleet
	slot int32
	vt   time.Duration
}

var _ attack.BotCtx = (*macroCtx)(nil)

// Now implements attack.BotCtx.
func (c *macroCtx) Now() time.Duration {
	if now := c.f.eng.Now(); now > c.vt {
		return now
	}
	return c.vt
}

// Rand implements attack.BotCtx: the shared wrapper over this slot's
// splitmix state, swapped in on slot change.
func (c *macroCtx) Rand() *rand.Rand {
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
func (c *macroCtx) Addr() [4]byte { return c.f.store.Addr(c.slot) }

// ServerAddr implements attack.BotCtx.
func (c *macroCtx) ServerAddr() [4]byte { return c.f.cfg.ServerAddr }

// ServerPort implements attack.BotCtx.
func (c *macroCtx) ServerPort() uint16 { return c.f.cfg.ServerPort }

// AttackWindow implements attack.BotCtx.
func (c *macroCtx) AttackWindow() (start, stop time.Duration) {
	return c.f.cfg.StartAt, c.f.cfg.StopAt
}

// Solves implements attack.BotCtx.
func (c *macroCtx) Solves() bool { return c.f.cfg.Solves }

// MaxSolveBacklog implements attack.BotCtx.
func (c *macroCtx) MaxSolveBacklog() time.Duration { return c.f.cfg.MaxSolveBacklog }

// NextISN implements attack.BotCtx: per-slot splitmix ISN stream seeded
// seed_i + 13.
func (c *macroCtx) NextISN() uint32 {
	f := c.f
	if f.isnState == nil {
		f.isnState = make([]uint64, f.cfg.Sources)
		for slot := range f.isnState {
			src := f.store.Source(int32(slot))
			f.isnState[slot] = uint64(f.cfg.Seed + int64(src)*101 + 13)
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
func (c *macroCtx) NextPort() uint16 {
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
func (c *macroCtx) ExpectSynAck(port uint16, isn uint32) {
	c.f.awaiting[awaitKey(c.slot, port)] = isn
}

// EmitAttack implements attack.BotCtx: the store transmits through the
// slot's own uplink whatever source seg claims. Between its ticks a slot
// sends only from OnSynAck, for an awaited handshake, or OnSolved, for a
// queued solve; with neither in motion no slot can send before this
// tick's instant, so the store may send it ahead (SourceStore.SendAhead).
func (c *macroCtx) EmitAttack(seg tcpkit.Segment) {
	f := c.f
	now := c.Now()
	f.metrics.Sent.Add(now, 1)
	if len(f.awaiting) == 0 && f.solves == nil {
		f.store.SendAhead(c.slot, now, seg)
		return
	}
	f.store.SendAt(c.slot, now, seg)
}

// SendHandshakeAck implements attack.BotCtx.
func (c *macroCtx) SendHandshakeAck(port uint16, isn, serverISN uint32, opts []byte) {
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

// Solve implements attack.BotCtx: cpumodel.CPU.Charge over the slot's
// CPU, with busy time accumulated fleet-wide, and the SYN-ACK queued
// behind the solves already on it.
func (c *macroCtx) Solve(hashes float64, sa attack.SynAck) {
	f := c.f
	s := f.solvesFor(c.slot)
	now := c.Now()
	start := max(now, s.freeAt)
	dev := f.devices[f.store.Source(c.slot)%len(f.devices)]
	dur := dev.TimeFor(hashes)
	s.freeAt = start + dur
	f.cpuBusy.AddSpan(start, s.freeAt, dur.Seconds())
	job := solveJob{port: sa.Port, isn: sa.ISN, serverISN: sa.ServerISN}
	job.n = uint8(copy(job.challenge[:], sa.Challenge.Data))
	s.q.Push(f.eng, s.freeAt, job, s.fire)
}

// CPUBacklog implements attack.BotCtx.
func (c *macroCtx) CPUBacklog() time.Duration {
	if c.f.solves == nil || c.f.solves[c.slot] == nil {
		return 0
	}
	return max(c.f.solves[c.slot].freeAt-c.Now(), 0)
}

// Metrics implements attack.BotCtx.
func (c *macroCtx) Metrics() *attack.Metrics { return c.f.metrics }
