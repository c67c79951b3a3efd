package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// Addr is an IPv4 address.
type Addr = [4]byte

// Node receives segments delivered by the network.
type Node interface {
	// Addr is the node's address.
	Addr() Addr
	// Handle processes a delivered segment. It runs inside the event loop;
	// implementations may send further segments and schedule events.
	Handle(seg tcpkit.Segment)
}

// LinkConfig describes one node's access link (used symmetrically for both
// directions, mirroring the paper's full-duplex testbed links).
type LinkConfig struct {
	// RateBps is the link bandwidth in bits per second.
	RateBps float64
	// Latency is the one-way propagation delay from the node to the
	// backbone (the backbone itself is well provisioned, per the paper's
	// topology, and adds no queueing).
	Latency time.Duration
	// MaxBacklog bounds the transmit queue as maximum queueing delay;
	// packets that would wait longer are dropped (drop-tail).
	MaxBacklog time.Duration
}

// DefaultHostLink is the paper's 100 Mbps host access link.
func DefaultHostLink() LinkConfig {
	return LinkConfig{RateBps: 100e6, Latency: 2 * time.Millisecond, MaxBacklog: 100 * time.Millisecond}
}

// DefaultServerLink is the paper's 1 Gbps server access link.
func DefaultServerLink() LinkConfig {
	return LinkConfig{RateBps: 1e9, Latency: 2 * time.Millisecond, MaxBacklog: 100 * time.Millisecond}
}

// xmitter is one direction of an access link.
type xmitter struct {
	cfg       LinkConfig
	busyUntil time.Duration
	stats     LinkStats
}

// serialise returns how long size bytes occupy a link of rate bits/s —
// the one expression behind every transmit and every train's arrival
// spacing, so both agree to the nanosecond.
func serialise(size int, rate float64) time.Duration {
	return time.Duration(float64(size*8) / rate * float64(time.Second))
}

// transmit attempts to enqueue a packet of size bytes at time now and
// returns the departure time (serialisation complete). A drop leaves
// busyUntil alone, so of a burst sent at one instant, whose start times
// only grow, every packet after a dropped one is dropped too.
func (x *xmitter) transmit(now time.Duration, size int) (time.Duration, bool) {
	start := max(now, x.busyUntil)
	if start-now > x.cfg.MaxBacklog {
		x.stats.Dropped++
		return 0, false
	}
	depart := start + serialise(size, x.cfg.RateBps)
	x.busyUntil = depart
	x.stats.SentPackets++
	x.stats.SentBytes += uint64(size)
	return depart, true
}

// LinkStats summarises one link direction.
type LinkStats struct {
	SentPackets uint64
	SentBytes   uint64
	Dropped     uint64
}

func (s *LinkStats) add(o LinkStats) {
	s.SentPackets += o.SentPackets
	s.SentBytes += o.SentBytes
	s.Dropped += o.Dropped
}

// port is one attached node. All of its mutable state — uplink, downlink,
// msgSeq, lastLeg — is touched only by the node's home shard: uplink and
// msgSeq from the node's own sends, downlink and lastLeg from deliveries,
// which execute on the destination's home shard.
type port struct {
	node  Node
	up    xmitter
	down  xmitter
	shard int
	// msgSeq numbers this node's outgoing packets; together with the
	// address it forms the canonical arrival-ordering key.
	msgSeq uint64
	// store, when non-nil, marks this as a SourceStore's virtual port:
	// deliveries run the store's per-slot downlink and handler instead of
	// node/down (which stay nil/unused).
	store *SourceStore
	// lastLeg is the tail of the downlink's FIFO of pending deliver legs,
	// nil when none is pending (see Engine.deliver).
	lastLeg *Event
}

// downLatency returns the propagation delay of the destination's
// downlink, whether it is a real port or a source store's shared link.
func (p *port) downLatency() time.Duration {
	if p.store != nil {
		return p.store.link.Latency
	}
	return p.down.cfg.Latency
}

// packet is the payload of a packet leg: everything runArrival and
// runDeliver need besides the ordering key, which the event carries.
//
// Every packet is a train — segments one sender transmitted back to back
// to one destination — and seg is the one arriving now. The cursor fields
// stamp the next: it is left's first, its payload is seg's unless it is
// the last (lastLen), and it arrives serialise(its size, rate) after seg,
// because back-to-back departures are spaced by exactly their uplink
// serialisation and share both propagation delays.
type packet struct {
	dst *port
	seg tcpkit.Segment
	// size is seg's wire size; slot is the destination slot when dst is a
	// source store's virtual port (-1 for real ports).
	size int32
	slot int32
	// The train cursor: segments after seg, the last one's PayloadLen, and
	// the sender's uplink rate.
	left    int32
	lastLen int32
	rate    float64
}

// message is one train in flight between shards: its first segment's
// arrival key and its packet.
type message struct {
	at  time.Duration // arrival at the destination downlink
	src uint64        // canonical origin key (address as integer)
	seq uint64        // origin's packet counter
	pkt packet
}

// netShard is the per-shard execution state: an engine plus outboxes of
// packets destined for other shards, exchanged at window barriers.
type netShard struct {
	eng    *Engine
	outbox [][]message // indexed by destination shard
}

// TapDir distinguishes tap events.
type TapDir int

// Tap directions.
const (
	TapSend TapDir = iota + 1
	TapDeliver
	TapDrop
)

// Tap observes packets, standing in for tcpdump. In sharded runs taps are
// invoked under a mutex from several shards; calls are race-free but their
// relative order across shards is not deterministic (aggregate anything
// order-sensitive per source instead).
type Tap func(at time.Duration, dir TapDir, seg tcpkit.Segment)

// Network connects nodes through access links and a zero-queueing
// backbone. A network built with NewNetwork runs on one engine; one built
// with NewSharded partitions nodes across several engines advanced in
// conservative lock-step windows by Run. Attach every node before running;
// the port table is read concurrently once the simulation starts.
type Network struct {
	// Eng is shard 0's engine, which is the only engine of an unsharded
	// network (and the conventional home of pinned nodes — see Pin).
	Eng    *Engine
	shards []*netShard
	ports  map[Addr]*port
	stores []*SourceStore
	pins   map[Addr]int

	taps  []Tap
	tapMu sync.Mutex

	// unroutable counts packets addressed to unknown nodes (e.g. SYN-ACKs
	// to spoofed sources). Sends from a known origin increment their own
	// slot of unroutableShard — per-shard because shard goroutines bump it
	// concurrently; only sends from unattached origins (where the calling
	// shard is unknown) fall back to the atomic.
	unroutable      atomic.Uint64
	unroutableShard []uint64

	// minUp[i] / minDown[i] are the smallest uplink / downlink propagation
	// latencies among shard i's attached ports, maintained incrementally
	// by Attach (hasPort marks shards with at least one port). Together
	// they bound how soon a packet from shard i can land on shard j —
	// minUp[i]+minDown[j] — which is the per-shard-pair lookahead the
	// window scheduler widens its windows with.
	minUp   []time.Duration
	minDown []time.Duration
	hasPort []bool

	// Shard load-balance observability (see ShardStats): the window count,
	// per-shard cumulative barrier wait, and the min/sum/max of the
	// per-shard window widths actually applied. Written only by the window
	// coordinator between barriers. releases (worker hand-offs, see
	// windowBarrier) is read only by the barrier tests.
	windows     int
	releases    uint64
	barrierWait []time.Duration
	lookMin     time.Duration
	lookMax     time.Duration
	lookSum     time.Duration
	lookN       uint64
}

// ShardStats summarises how a sharded run's load spread across shards:
// per-shard executed event counts, the number of lock-step windows, and
// each shard's cumulative wall-clock wait at window barriers (time spent
// finished while the slowest shard of the window was still running —
// high wait on one shard means the others carry the load). Event counts
// are deterministic; waits and windows are wall-clock observations and
// never affect results. LookaheadMin/Mean/Max summarise the per-shard
// window widths the adaptive per-pair lookahead actually granted (zero
// until a windowed run happens) — on a heterogeneous topology Mean well
// above Min is the widening working.
type ShardStats struct {
	Events      []uint64
	Windows     int
	BarrierWait []time.Duration

	LookaheadMin  time.Duration
	LookaheadMean time.Duration
	LookaheadMax  time.Duration
}

// ShardStats reports the current load-balance counters.
func (n *Network) ShardStats() ShardStats {
	st := ShardStats{Windows: n.windows, Events: make([]uint64, len(n.shards))}
	for i, s := range n.shards {
		st.Events[i] = s.eng.Fired()
	}
	if n.barrierWait != nil {
		st.BarrierWait = append([]time.Duration(nil), n.barrierWait...)
	}
	if n.lookN > 0 {
		st.LookaheadMin = n.lookMin
		st.LookaheadMax = n.lookMax
		st.LookaheadMean = n.lookSum / time.Duration(n.lookN)
	}
	return st
}

// EngineStats folds every shard engine's queue counters into one: the
// fired and discarded counts add up, the peaks are the longest any one
// shard's heap has been (a heap's length is what a sift pays for).
func (n *Network) EngineStats() EngineStats {
	var sum EngineStats
	for _, s := range n.shards {
		st := s.eng.Stats()
		sum.TimersFired += st.TimersFired
		sum.PacketLegsFired += st.PacketLegsFired
		sum.InPlace += st.InPlace
		sum.ArrivalsInPlace += st.ArrivalsInPlace
		sum.DeliversQueued += st.DeliversQueued
		sum.Discarded += st.Discarded
		sum.PeakTimers = max(sum.PeakTimers, st.PeakTimers)
		sum.PeakPackets = max(sum.PeakPackets, st.PeakPackets)
	}
	return sum
}

// NewNetwork returns an empty single-shard network on the engine.
func NewNetwork(eng *Engine) *Network {
	n := &Network{
		Eng:    eng,
		shards: []*netShard{{eng: eng, outbox: make([][]message, 1)}},
		ports:  make(map[Addr]*port),
		pins:   make(map[Addr]int),
	}
	n.initLookahead()
	eng.net = n
	return n
}

// initLookahead sizes the per-shard latency minima tables (and the
// per-shard unroutable counters, which share the shard indexing).
func (n *Network) initLookahead() {
	ns := len(n.shards)
	n.minUp = make([]time.Duration, ns)
	n.minDown = make([]time.Duration, ns)
	n.hasPort = make([]bool, ns)
	n.unroutableShard = make([]uint64, ns)
}

// NewSharded returns an empty network whose nodes are partitioned across
// shards event engines (at least one). Nodes are placed by address hash
// (see Pin for explicit placement); Run advances all shards in lock-step
// windows bounded by the minimum cross-shard link latency. Results are
// byte-identical at every shard count.
func NewSharded(shards int) *Network {
	if shards < 1 {
		shards = 1
	}
	n := &Network{
		ports: make(map[Addr]*port),
		pins:  make(map[Addr]int),
	}
	for i := 0; i < shards; i++ {
		s := &netShard{eng: NewEngine(), outbox: make([][]message, shards)}
		s.eng.net = n
		n.shards = append(n.shards, s)
	}
	n.Eng = n.shards[0].eng
	n.initLookahead()
	return n
}

// Shards returns the shard count.
func (n *Network) Shards() int { return len(n.shards) }

// Engine returns shard i's engine.
func (n *Network) Engine(i int) *Engine { return n.shards[i].eng }

// Pin fixes the shard a not-yet-attached address will live on (the flood
// experiments pin the server to shard 0). When any pin exists, unpinned
// nodes spread over the remaining shards, keeping the pinned (hot) shards
// to their designated tenants. Placement never affects results, only load
// balance.
func (n *Network) Pin(addr Addr, shard int) error {
	if shard < 0 || shard >= len(n.shards) {
		return fmt.Errorf("netsim: pin shard %d out of range [0,%d)", shard, len(n.shards))
	}
	if _, ok := n.ports[addr]; ok {
		return fmt.Errorf("netsim: address %v already attached", addr)
	}
	n.pins[addr] = shard
	return nil
}

// homeShard is the deterministic placement rule: explicit pin, else an
// address hash over the unpinned shards (over all shards when nothing is
// pinned).
func (n *Network) homeShard(addr Addr) int {
	ns := len(n.shards)
	if ns == 1 {
		return 0
	}
	if s, ok := n.pins[addr]; ok {
		return s
	}
	h := fnv32a(addr)
	if len(n.pins) == 0 {
		return int(h % uint32(ns))
	}
	pinned := make([]bool, ns)
	for _, s := range n.pins {
		pinned[s] = true
	}
	var free []int
	for i := 0; i < ns; i++ {
		if !pinned[i] {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return int(h % uint32(ns))
	}
	return free[h%uint32(len(free))]
}

func fnv32a(addr Addr) uint32 {
	h := uint32(2166136261)
	for _, b := range addr {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// addrKey is the canonical origin component of the arrival-ordering key.
func addrKey(addr Addr) uint64 {
	return uint64(addr[0])<<24 | uint64(addr[1])<<16 | uint64(addr[2])<<8 | uint64(addr[3])
}

// EngineFor returns the engine of the shard the address lives (or will
// live) on — the engine a node must schedule its own events against.
func (n *Network) EngineFor(addr Addr) *Engine {
	return n.shards[n.homeShard(addr)].eng
}

// Attach registers a node with its access link on the node's home shard.
// Attaching a duplicate address fails. All attaches must happen before the
// simulation runs.
func (n *Network) Attach(node Node, link LinkConfig) error {
	addr := node.Addr()
	if _, ok := n.ports[addr]; ok {
		return fmt.Errorf("netsim: address %v already attached", addr)
	}
	for _, s := range n.stores {
		if _, ok := s.slotOf(addr); ok {
			return fmt.Errorf("netsim: address %v falls inside macro source range at %v", addr, s.base)
		}
	}
	shard := n.homeShard(addr)
	n.ports[addr] = &port{
		node:  node,
		up:    xmitter{cfg: link},
		down:  xmitter{cfg: link},
		shard: shard,
	}
	// Fold the link into the shard's latency minima — the incremental
	// half of the per-pair lookahead (Run derives window widths from
	// these, so all attaches must precede the first Run).
	if !n.hasPort[shard] {
		n.hasPort[shard] = true
		n.minUp[shard] = link.Latency
		n.minDown[shard] = link.Latency
	} else {
		if link.Latency < n.minUp[shard] {
			n.minUp[shard] = link.Latency
		}
		if link.Latency < n.minDown[shard] {
			n.minDown[shard] = link.Latency
		}
	}
	return nil
}

// RegisterTap adds a packet observer.
func (n *Network) RegisterTap(t Tap) { n.taps = append(n.taps, t) }

func (n *Network) tap(at time.Duration, dir TapDir, seg *tcpkit.Segment) {
	if len(n.taps) > 0 {
		n.runTaps(at, dir, seg)
	}
}

func (n *Network) runTaps(at time.Duration, dir TapDir, seg *tcpkit.Segment) {
	n.tapMu.Lock()
	defer n.tapMu.Unlock()
	for _, t := range n.taps {
		t(at, dir, *seg)
	}
}

// Send injects a segment from its source node. The packet traverses the
// source uplink, the backbone, and the destination downlink; it may be
// dropped at either queue or if the destination does not exist.
func (n *Network) Send(seg tcpkit.Segment) {
	n.SendFrom(seg.Src, seg)
}

// SendFrom injects a segment through origin's uplink regardless of the
// segment's source address — the spoofing primitive SYN flooders use.
// Replies to the spoofed source become unroutable. Must be called from the
// origin node's own shard (i.e. inside one of its events or before the
// simulation starts).
func (n *Network) SendFrom(origin Addr, seg tcpkit.Segment) {
	n.sendFrom(origin, &seg, 1, seg.PayloadLen)
}

// SendTrain sends count segments back to back from seg.Src: count−1 copies
// of seg, then one whose PayloadLen is lastLen — a burst such as an
// MSS-segmented response. It is exactly count Sends in a row (the same
// taps, drops, link counters, arrival times, firing order and
// deliveries), carried through the engine as one event that the
// destination expands a segment at a time.
func (n *Network) SendTrain(seg tcpkit.Segment, count, lastLen int) {
	n.sendFrom(seg.Src, &seg, count, lastLen)
}

// sendFrom resolves an attached origin's port for send. seg is the
// caller's copy, which send may rewrite.
func (n *Network) sendFrom(origin Addr, seg *tcpkit.Segment, count, lastLen int) {
	if src, ok := n.ports[origin]; ok && count > 0 {
		n.send(src.shard, &src.up, origin, &src.msgSeq, seg, count, lastLen)
	} else if count > 0 {
		// Origins must be attached; treat as misconfiguration drop. Only
		// the (atomic) unroutable counter records it: without a port we
		// do not know the calling shard, so reading any engine's clock
		// for a tap here would race in sharded runs.
		n.unroutable.Add(uint64(count))
	}
}

// send is the one send path, behind SendFrom, SendTrain and
// SourceStore.SendAt: count segments (the last with PayloadLen lastLen)
// from origin, whose packet counter is *seq, through the uplink up on the
// given shard; seg is a scratch copy, rewritten on the way. Each segment
// is tapped and transmitted in turn, and may be dropped; the ones that
// were not are a prefix of the burst (see transmit) and travel on as one
// train. Unroutable segments still consume uplink bandwidth and count one
// each.
func (n *Network) send(shard int, up *xmitter, origin Addr, seq *uint64, seg *tcpkit.Segment, count, lastLen int) {
	sh := n.shards[shard]
	now := sh.eng.Now()
	full := seg.PayloadLen
	var depart time.Duration // the first segment's
	sent := 0
	// PayloadLen is stored only when it changes: copying seg right after a
	// store into it stalls the copy, and a single send would pay that.
	for k := 0; k < count; k++ {
		if k == count-1 && seg.PayloadLen != lastLen {
			seg.PayloadLen = lastLen
		}
		n.tap(now, TapSend, seg)
		d, ok := up.transmit(now, seg.WireSize())
		if !ok {
			n.tap(now, TapDrop, seg)
			continue
		}
		if sent == 0 {
			depart = d
		}
		sent++
	}
	if sent == 0 {
		return
	}
	dst, dslot := n.lookup(seg.Dst)
	if dst == nil {
		n.unroutableShard[shard] += uint64(sent)
		return
	}
	if sent < count {
		lastLen = full // the last segment was dropped
	}
	first := full // seg becomes the first segment
	if sent == 1 {
		first = lastLen
	}
	if seg.PayloadLen != first {
		seg.PayloadLen = first
	}
	// After the uplink serialisation and both propagation legs, the first
	// segment reaches the destination's downlink.
	m := message{
		at:  depart + up.cfg.Latency + dst.downLatency(),
		src: addrKey(origin),
		seq: *seq,
		pkt: packet{
			dst: dst, seg: *seg, size: int32(seg.WireSize()), slot: dslot,
			left: int32(sent - 1), lastLen: int32(lastLen), rate: up.cfg.RateBps,
		},
	}
	*seq += uint64(sent)
	if dst.shard == shard {
		sh.eng.scheduleArrival(&m)
	} else {
		sh.outbox[dst.shard] = append(sh.outbox[dst.shard], m)
	}
}

// runArrival fires the downlink-queue leg of a delivery (kindArrival) and,
// when the engine's loop would pop them next anyway, the legs after it.
// For each segment of the train: the segment is offered to the
// destination's downlink transmitter; an accepted one gets a kindDeliver
// leg at the serialisation-complete time under a fresh engine seq — the
// seq it has always taken at this point — on a pooled event, or on ev
// itself for the train's last segment; the cursor then stamps ev with the
// next segment's arrival key.
//
// About half the deliver legs of a flood cell would be the very next event
// to pop, and most of a train's next arrivals would be too. Either leg —
// ahead of both heap heads, and inside the bound of the Run or RunBefore
// in progress, which is what would have let that loop pop it — fires here
// instead of going through the heap. A deliver leg with arrivals still to
// come must also order before the train's next one, which waits in no
// heap while the leg fires. A bare Step has no bound (limit is zero), so
// runMerged, which must look at every shard between events, never takes
// the shortcut. Keys within a train ascend, so holding back all but the
// next arrival cannot reorder a pop (the RunQueue argument).
func (n *Network) runArrival(e *Engine, ev *Event) {
	for {
		p := &ev.pkt
		var departDown time.Duration
		var ok bool
		if st := p.dst.store; st != nil {
			departDown, ok = st.downTransmit(p.slot, e.now, int(p.size))
		} else {
			departDown, ok = p.dst.down.transmit(e.now, int(p.size))
		}
		var d *Event // this segment's deliver leg
		switch {
		case !ok:
			n.tap(e.now, TapDrop, &p.seg)
		case p.left == 0:
			d = ev
		default:
			d = e.alloc()
			d.pkt = *p
		}
		if d != nil {
			d.kind = kindDeliver
			d.at = departDown // transmit never departs before now
			d.seq = e.seq
			e.seq++
		}
		if p.left == 0 {
			if d == nil {
				e.recycle(ev)
			} else {
				e.deliver(d, nil)
			}
			return
		}
		p.left--
		if p.left == 0 {
			p.seg.PayloadLen = int(p.lastLen)
		}
		p.size = int32(p.seg.WireSize())
		ev.at += serialise(int(p.size), p.rate)
		ev.seq++
		if d != nil {
			e.deliver(d, ev)
		}
		if ev.at < e.limit && e.before(ev) {
			e.stats.ArrivalsInPlace++
			e.now = ev.at
			e.fired++
			continue
		}
		e.pushPacket(ev)
		return
	}
}

// runDeliver fires the final leg (kindDeliver): tap, then hand the
// segment to the destination node.
func (n *Network) runDeliver(e *Engine, p packet) {
	n.tap(e.now, TapDeliver, &p.seg)
	if st := p.dst.store; st != nil {
		st.handler(p.slot, p.seg)
		return
	}
	p.dst.node.Handle(p.seg)
}

// lookup resolves a destination address to its port — a real attached
// port (slot -1) or a source store's virtual port plus slot index.
func (n *Network) lookup(addr Addr) (*port, int32) {
	if p, ok := n.ports[addr]; ok {
		return p, -1
	}
	for _, s := range n.stores {
		if slot, ok := s.slotOf(addr); ok {
			return s.vport, slot
		}
	}
	return nil, -1
}

// Unroutable returns how many packets were addressed to unknown nodes
// (e.g. SYN-ACKs to spoofed sources) or sent from unattached origins.
func (n *Network) Unroutable() uint64 {
	u := n.unroutable.Load()
	for _, c := range n.unroutableShard {
		u += c
	}
	return u
}

// Stats returns (uplink, downlink) statistics for a node address.
func (n *Network) Stats(addr Addr) (up, down LinkStats, ok bool) {
	p, found := n.ports[addr]
	if !found {
		return LinkStats{}, LinkStats{}, false
	}
	return p.up.stats, p.down.stats, true
}
