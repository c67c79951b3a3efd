package netsim

import (
	"fmt"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// SourceAddr returns the address of source i in a population based at
// base: the low octet cycles over 200 hosts, the next two octets carry
// the higher digits. For i < 51200 this is exactly the botnet's historic
// address derivation, so pinned populations kept their addresses; beyond
// it the second octet extends the range instead of wrapping into
// collisions.
func SourceAddr(base Addr, i int) Addr {
	addr := base
	addr[3] += byte(i % 200)
	addr[2] += byte((i / 200) % 256)
	addr[1] += byte(i / 51200)
	return addr
}

// MaxSourceSlots is the largest population SourceAddr maps injectively:
// 200 low-octet hosts × 256 × 256 higher digits.
const MaxSourceSlots = 200 * 256 * 256

// SourceStore is a struct-of-arrays population of homogeneous attack
// sources sharing one access-link configuration: per-source state is a
// few flat parallel slices (uplink/downlink busy-until, packet sequence)
// instead of a port object, node object, and timer per source, so a
// million-source flood costs tens of megabytes instead of gigabytes.
//
// The store is reached through the normal delivery path: packets
// addressed to any source in the range resolve to the store's virtual
// port, run the per-slot downlink leg, and are handed to the store's
// handler with the slot index. Outbound packets go through SendAt, which takes
// Network.SendFrom's own send path — same tap order, same drop points,
// same canonical (address, sequence) arrival key — so a store-backed
// source is byte-indistinguishable on the wire from an attached port.
type SourceStore struct {
	n       *Network
	base    Addr
	count   int
	link    LinkConfig
	handler func(slot int32, seg tcpkit.Segment)
	// vport is the store's standin in the routing table: a port whose
	// store field redirects the downlink and delivery legs to per-slot
	// state. Its xmitters are never used.
	vport *port

	// source[slot] is the population index a slot holds and slot[source]
	// its inverse; both nil is the identity numbering (see Renumber).
	source []int32
	slot   []int32

	// Parallel per-slot state, indexed by source slot.
	upBusy   []time.Duration
	downBusy []time.Duration
	msgSeq   []uint64

	// Aggregate link counters (per-direction totals over all slots).
	upStats   LinkStats
	downStats LinkStats
}

// AttachSources registers a population of count sources based at base,
// all sharing the given access link, delivering inbound segments to
// handler(slot, seg). Like Attach it must be called before the
// simulation runs. The population's addresses must not collide with any
// attached port; distinct stores must use distinct first octets.
func (n *Network) AttachSources(count int, base Addr, link LinkConfig, handler func(slot int32, seg tcpkit.Segment)) (*SourceStore, error) {
	if count < 1 || count > MaxSourceSlots {
		return nil, fmt.Errorf("netsim: source count %d out of range [1,%d]", count, MaxSourceSlots)
	}
	if handler == nil {
		return nil, fmt.Errorf("netsim: source store needs a handler")
	}
	if link.RateBps <= 0 {
		return nil, fmt.Errorf("netsim: source store link needs a positive rate")
	}
	s := &SourceStore{
		n:        n,
		base:     base,
		count:    count,
		link:     link,
		handler:  handler,
		upBusy:   make([]time.Duration, count),
		downBusy: make([]time.Duration, count),
		msgSeq:   make([]uint64, count),
	}
	for addr := range n.ports {
		if _, ok := s.slotOf(addr); ok {
			return nil, fmt.Errorf("netsim: attached address %v falls inside macro source range", addr)
		}
	}
	for _, other := range n.stores {
		// Exact overlap checks over millions of slots are pointless;
		// first-octet separation is the documented contract.
		if other.base[0] == base[0] {
			return nil, fmt.Errorf("netsim: macro source ranges %v and %v share first octet; use distinct prefixes", other.base, base)
		}
	}
	s.vport = &port{store: s}
	n.stores = append(n.stores, s)
	return s, nil
}

// Renumber makes slot r hold source order[r], which must be a permutation
// of the population. A source keeps everything derived from its index —
// its address, and so the canonical arrival key of what it sends — and
// only the slot that indexes its per-slot state moves. A driver that
// visits sources in some fixed order numbers slots in that order so its
// visits read the per-slot arrays front to back. Like AttachSources it
// must precede the first run; the store keeps order.
func (s *SourceStore) Renumber(order []int32) error {
	if len(order) != s.count {
		return fmt.Errorf("netsim: renumbering %d slots of a %d-source store", len(order), s.count)
	}
	slot := make([]int32, s.count)
	for i := range slot {
		slot[i] = -1
	}
	for r, src := range order {
		if src < 0 || int(src) >= s.count || slot[src] >= 0 {
			return fmt.Errorf("netsim: renumbering is not a permutation: source %d at slot %d", src, r)
		}
		slot[src] = int32(r)
	}
	s.source, s.slot = order, slot
	return nil
}

// Source returns the population index slot holds: the i of its address
// SourceAddr(base, i).
func (s *SourceStore) Source(slot int32) int {
	if s.source == nil {
		return int(slot)
	}
	return int(s.source[slot])
}

// slotOf inverts Addr over this store's range.
func (s *SourceStore) slotOf(addr Addr) (int32, bool) {
	if addr[0] != s.base[0] {
		return 0, false
	}
	d3 := int(addr[3]-s.base[3]) & 0xff
	if d3 >= 200 {
		return 0, false
	}
	d2 := int(addr[2]-s.base[2]) & 0xff
	d1 := int(addr[1]-s.base[1]) & 0xff
	i := d3 + 200*d2 + 51200*d1
	if i >= s.count {
		return 0, false
	}
	if s.slot != nil {
		return s.slot[i], true
	}
	return int32(i), true
}

// Count returns the population size.
func (s *SourceStore) Count() int { return s.count }

// Addr returns slot's address.
func (s *SourceStore) Addr(slot int32) Addr { return SourceAddr(s.base, s.Source(slot)) }

// Contains reports whether addr belongs to this population — the
// predicate server-side metrics aggregate attacker establishments by.
func (s *SourceStore) Contains(addr Addr) bool {
	_, ok := s.slotOf(addr)
	return ok
}

// Stats returns the aggregate (uplink, downlink) counters over all slots.
func (s *SourceStore) Stats() (up, down LinkStats) { return s.upStats, s.downStats }

// SendAt injects a segment through slot's uplink at simulated time at
// (at or after the engine's current time — the macro driver emits at
// virtual per-source times inside a batch event). It is Network.SendFrom
// from a slot: the same send path (tap, uplink transmit with drop-tail
// check, destination resolution, canonical arrival key) over the slot's
// flat uplink state.
//
// A future at defers the send as an engine event at that time. The
// per-slot busy-until accumulators assume time-ordered transmissions —
// the same assumption every attached port's xmitter makes — and a batch
// event emitting hundreds of milliseconds into the virtual future while
// reply-driven sends land at real times in between would interleave them
// out of order, inflating apparent queue delay into spurious drop-tail
// drops. Deferring restores the per-slot time ordering: every transmit
// starts at the engine's current time, exactly like SendFrom. The
// deferred send is a timer in all but its payload: it carries (slot,
// segment) on a pooled kindSend event instead of a closure.
func (s *SourceStore) SendAt(slot int32, at time.Duration, seg tcpkit.Segment) {
	if eng := s.n.Eng; at > eng.Now() {
		eng.scheduleSend(at, s.vport, slot, &seg)
		return
	}
	s.transmit(slot, &seg)
}

// transmit sends seg through slot's uplink now; seg is a scratch copy.
func (s *SourceStore) transmit(slot int32, seg *tcpkit.Segment) {
	up := xmitter{cfg: s.link, busyUntil: s.upBusy[slot]}
	s.n.send(&up, s.Addr(slot), &s.msgSeq[slot], seg, 1, seg.PayloadLen)
	s.upBusy[slot] = up.busyUntil
	s.upStats.add(up.stats)
}

// downTransmit is the per-slot downlink leg, run by runArrival: a port's
// xmitter over the slot's flat state.
func (s *SourceStore) downTransmit(slot int32, now time.Duration, size int) (time.Duration, bool) {
	down := xmitter{cfg: s.link, busyUntil: s.downBusy[slot]}
	depart, ok := down.transmit(now, size)
	s.downBusy[slot] = down.busyUntil
	s.downStats.add(down.stats)
	return depart, ok
}
