package netsim

import (
	"fmt"
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

// transmit is burst for one packet of size bytes: it returns the
// departure time (serialisation complete) and whether it was accepted.
func (x *xmitter) transmit(now time.Duration, size int) (time.Duration, bool) {
	sent, depart := x.burst(now, 1, size, size)
	return depart, sent == 1
}

// burst enqueues count packets sent back to back at instant now, count−1
// of size bytes and then one of lastSize, and returns how many were
// accepted and the first one's departure. A packet is dropped when it
// would wait longer than MaxBacklog to start. A drop leaves busyUntil
// alone, so of packets sent at one instant, whose start times only grow,
// every one after a dropped one is dropped too: the accepted ones are a
// prefix. Packet k starts at start+k·s, s being one full packet's
// serialisation, so the prefix and the counters are arithmetic, the same
// as count transmits in a row.
func (x *xmitter) burst(now time.Duration, count, size, lastSize int) (int, time.Duration) {
	start := max(now, x.busyUntil)
	wait := start - now
	if wait > x.cfg.MaxBacklog {
		x.stats.Dropped += uint64(count)
		return 0, 0
	}
	sent, full := count, count-1 // full counts the accepted packets of size bytes
	var s time.Duration
	if count > 1 {
		s = serialise(size, x.cfg.RateBps)
		if s > 0 {
			if k := (x.cfg.MaxBacklog - wait) / s; k < time.Duration(full) {
				sent, full = int(k)+1, int(k)+1
			}
		}
	}
	x.busyUntil = start + time.Duration(full)*s
	x.stats.SentBytes += uint64(full * size)
	if sent == count {
		x.busyUntil += serialise(lastSize, x.cfg.RateBps)
		x.stats.SentBytes += uint64(lastSize)
	}
	x.stats.SentPackets += uint64(sent)
	x.stats.Dropped += uint64(count - sent)
	if count == 1 {
		return sent, x.busyUntil
	}
	return sent, start + s
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

// port is one attached node: its uplink advances with the node's own
// sends, its downlink and lastLeg with deliveries to it.
type port struct {
	node Node
	up   xmitter
	down xmitter
	// store, when non-nil, marks this as a SourceStore's virtual port:
	// deliveries run the store's per-slot downlink and handler instead of
	// node/down (which stay nil/unused).
	store *SourceStore
	// lastLeg is the tail of the downlink's FIFO of pending deliver legs,
	// nil when none is pending (see Engine.deliver).
	lastLeg *Event
	// deferTo is node when it implements DeferNode, and dq its open
	// trains and deferred legs. The packet paths test deferTo, which
	// shares a cache line with store and lastLeg, before they touch dq.
	deferTo DeferNode
	dq      deferQueue
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

// TapDir distinguishes tap events.
type TapDir int

// Tap directions.
const (
	TapSend TapDir = iota + 1
	TapDeliver
	TapDrop
)

// Tap observes packets, standing in for tcpdump. Taps run inside the
// event loop, in firing order.
type Tap func(at time.Duration, dir TapDir, seg tcpkit.Segment)

// Network connects nodes through access links and a zero-queueing
// backbone, all driven by one engine. Attach every node before running.
type Network struct {
	// Eng is the engine every node and source store schedules against.
	Eng    *Engine
	ports  map[Addr]*port
	stores []*SourceStore
	taps   []Tap
	// deferring lists the ports whose node implements DeferNode, in
	// attach order.
	deferring []*port

	// seq numbers every routed packet, a train's segments consecutively;
	// with the sender's address it forms the canonical arrival-ordering
	// key (see less).
	seq uint64

	// unroutable counts packets addressed to unknown nodes (e.g. SYN-ACKs
	// to spoofed sources) or sent from unattached origins.
	unroutable uint64
	// ahead is the latest instant a SourceStore.SendAhead transmitted at.
	ahead time.Duration
}

// ShardStats is what Network.ShardStats reports.
//
// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
type ShardStats struct {
	Events        []uint64
	Windows       int
	BarrierWait   []time.Duration
	LookaheadMean time.Duration
}

// ShardStats reports the engine's fired-event count as a one-element
// Events.
//
// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
func (n *Network) ShardStats() ShardStats {
	return ShardStats{Events: []uint64{n.Eng.Fired()}}
}

// NewNetwork returns an empty network on the engine.
func NewNetwork(eng *Engine) *Network {
	n := &Network{Eng: eng, ports: make(map[Addr]*port)}
	eng.net = n
	return n
}

// NewSharded returns NewNetwork(NewEngine()); the shard count is ignored.
//
// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
func NewSharded(int) *Network { return NewNetwork(NewEngine()) }

// Run executes the simulation until the given time (see Engine.Run).
func (n *Network) Run(until time.Duration) { n.Eng.Run(until) }

// addrKey is the canonical origin component of the arrival-ordering key.
func addrKey(addr Addr) uint64 {
	return uint64(addr[0])<<24 | uint64(addr[1])<<16 | uint64(addr[2])<<8 | uint64(addr[3])
}

// Attach registers a node with its access link. Attaching a duplicate
// address fails. All attaches must happen before the simulation runs.
func (n *Network) Attach(node Node, link LinkConfig) error {
	addr := node.Addr()
	if _, ok := n.ports[addr]; ok {
		return fmt.Errorf("netsim: address %v already attached", addr)
	}
	for _, s := range n.stores {
		if s.Contains(addr) {
			return fmt.Errorf("netsim: address %v falls inside macro source range at %v", addr, s.base)
		}
	}
	p := &port{node: node, up: xmitter{cfg: link}, down: xmitter{cfg: link}}
	if d, ok := node.(DeferNode); ok {
		p.deferTo = d
		n.deferring = append(n.deferring, p)
	}
	n.ports[addr] = p
	return nil
}

// RegisterTap adds a packet observer. A tap turns train deferral and
// SourceStore.SendAhead off; it panics if a deferred train is still in
// flight, or a packet sent ahead is still ahead of the clock, whose
// segments the tap could no longer see at their instants.
func (n *Network) RegisterTap(t Tap) {
	for _, p := range n.deferring {
		if p.dq.pending() {
			panic("netsim: RegisterTap while a deferred train is in flight")
		}
	}
	if n.ahead > n.Eng.now {
		panic("netsim: RegisterTap while a packet sent ahead is ahead of the clock")
	}
	n.taps = append(n.taps, t)
}

func (n *Network) tap(at time.Duration, dir TapDir, seg *tcpkit.Segment) {
	if len(n.taps) > 0 {
		n.runTaps(at, dir, seg)
	}
}

func (n *Network) runTaps(at time.Duration, dir TapDir, seg *tcpkit.Segment) {
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

// Route is where segments to one address go: a port, a store slot, or none.
type Route struct {
	dst  *port
	slot int32
}

// Route resolves addr for SendRoute and reports whether a segment sent
// to it now would be read by anything: a node or source holding addr,
// or a tap. A segment nothing reads counts only by its size, so its
// sender need not write its bytes.
func (n *Network) Route(addr Addr) (Route, bool) {
	r := n.route(addr)
	return r, r.dst != nil || len(n.taps) > 0
}

// SendRoute is Send for a segment whose destination Route resolved to r.
func (n *Network) SendRoute(seg tcpkit.Segment, r Route) {
	n.sendFrom(seg.Src, &seg, 1, seg.PayloadLen, r)
}

// SendFrom injects a segment through origin's uplink regardless of the
// segment's source address — the spoofing primitive SYN flooders use.
// Replies to the spoofed source become unroutable.
func (n *Network) SendFrom(origin Addr, seg tcpkit.Segment) {
	n.sendFrom(origin, &seg, 1, seg.PayloadLen, n.route(seg.Dst))
}

// SendTrain sends count segments back to back from seg.Src: count−1 copies
// of seg, then one whose PayloadLen is lastLen — a burst such as an
// MSS-segmented response. It is exactly count Sends in a row (the same
// taps, drops, link counters, arrival times, firing order and
// deliveries), carried through the engine as one event that the
// destination expands a segment at a time.
func (n *Network) SendTrain(seg tcpkit.Segment, count, lastLen int) {
	n.sendFrom(seg.Src, &seg, count, lastLen, n.route(seg.Dst))
}

// sendFrom resolves an attached origin's port for send. seg is the
// caller's copy, which send may rewrite.
func (n *Network) sendFrom(origin Addr, seg *tcpkit.Segment, count, lastLen int, r Route) {
	if src, ok := n.ports[origin]; ok && count > 0 {
		n.send(&src.up, origin, seg, count, lastLen, n.Eng.now, r)
	} else if count > 0 {
		// Origins must be attached; treat as misconfiguration drop,
		// counted but not tapped.
		n.unroutable += uint64(count)
	}
}

// send is the one send path, behind SendFrom, SendTrain, SendRoute and
// SourceStore.SendAt: count segments (the last with PayloadLen lastLen)
// from origin through the uplink up at instant now, to the destination
// r; seg is a scratch copy, rewritten on the way. The uplink takes the
// burst in one step (see burst); the ones it did not drop are a prefix
// of the burst and travel on as one train. A tap sees each segment's send
// and drop in turn. Unroutable segments still consume uplink bandwidth
// and count one each.
func (n *Network) send(up *xmitter, origin Addr, seg *tcpkit.Segment, count, lastLen int, now time.Duration, r Route) {
	full := seg.PayloadLen
	size := seg.WireSize()
	// WireSize grows with PayloadLen byte for byte.
	sent, depart := up.burst(now, count, size, size-full+lastLen)
	if len(n.taps) > 0 {
		for k := 0; k < count; k++ {
			if k == count-1 {
				seg.PayloadLen = lastLen
			}
			n.runTaps(now, TapSend, seg)
			if k >= sent {
				n.runTaps(now, TapDrop, seg)
			}
		}
	}
	if sent == 0 {
		return
	}
	dst := r.dst
	if dst == nil {
		n.unroutable += uint64(sent)
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
	// segment reaches the destination's downlink. Only SourceStore.SendAhead
	// sends at an instant past the clock.
	n.Eng.scheduleArrival(depart+up.cfg.Latency+dst.downLatency(), addrKey(origin), n.seq, &packet{
		dst: dst, seg: *seg, size: int32(seg.WireSize()), slot: r.slot,
		left: int32(sent - 1), lastLen: int32(lastLen), rate: up.cfg.RateBps,
	}, now > n.Eng.now)
	n.seq += uint64(sent)
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
// ahead of both heap heads, and inside the bound of the Run in progress,
// which is what would have let that loop pop it — fires here instead of
// going through the heap. A deliver leg with arrivals still to come must
// also order before the train's next one, which waits in no heap while
// the leg fires. A bare Step has no bound (limit is zero), so it never
// takes the shortcut. Keys within a train ascend, so holding back all but the
// next arrival cannot reorder a pop (the RunQueue argument).
//
// A destination that implements DeferNode, while no tap is registered,
// first gets the middle segments of its open trains that arrive before
// this one, and takes the rest of a train with more than one segment to
// go as deferred work (see deferTrain): the train's next arrival is then
// its last.
func (n *Network) runArrival(e *Engine, ev *Event) {
	for {
		p := &ev.pkt
		dst := p.dst
		if dst.deferTo != nil && dst.dq.open > 0 {
			n.catchUp(dst, ev.at, ev.src, ev.seq)
		}
		var departDown time.Duration
		var ok bool
		if st := dst.store; st != nil {
			departDown, ok = st.downTransmit(p.slot, e.now, int(p.size))
		} else {
			departDown, ok = dst.down.transmit(e.now, int(p.size))
		}
		if p.left > 0 && dst.deferTo != nil && len(n.taps) == 0 {
			n.deferTrain(ev, departDown, ok)
		} else {
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
	if p.dst.deferTo != nil && p.dst.dq.head < len(p.dst.dq.legs) {
		n.drain(p.dst, e.now)
	}
	n.tap(e.now, TapDeliver, &p.seg)
	if st := p.dst.store; st != nil {
		st.handler(p.slot, p.seg)
		return
	}
	p.dst.node.Handle(p.seg)
}

// route resolves a destination address to its port — a real attached
// port (slot -1) or a source store's virtual port plus slot index.
func (n *Network) route(addr Addr) Route {
	// Ports and stores never overlap, so the order is free: stores first,
	// because a range check is cheaper than the map miss it saves.
	for _, s := range n.stores {
		if slot, ok := s.slotOf(addr); ok {
			return Route{s.vport, slot}
		}
	}
	return Route{n.ports[addr], -1}
}

// Unroutable returns how many packets were addressed to unknown nodes
// (e.g. SYN-ACKs to spoofed sources) or sent from unattached origins.
func (n *Network) Unroutable() uint64 { return n.unroutable }

// Stats returns (uplink, downlink) statistics for a node address.
func (n *Network) Stats(addr Addr) (up, down LinkStats, ok bool) {
	p, found := n.ports[addr]
	if !found {
		return LinkStats{}, LinkStats{}, false
	}
	if p.dq.open > 0 {
		at, src, seq := n.Eng.horizon()
		n.catchUp(p, at, src, seq)
	}
	return p.up.stats, p.down.stats, true
}
