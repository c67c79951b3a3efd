package netsim

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// DeferNode is a Node that takes the deliveries of a packet train's
// segments before its last one late, in one call each, instead of as an
// engine event each. To such a destination a train's arrival event fires
// twice, at its first segment and at its last: the segments between are
// offered to the downlink lazily, and every accepted segment but the last
// is recorded on the port as a deferred leg — its delivery time and the
// train it belongs to — rather than queued. The last segment stays a real
// deliver event and reaches Handle.
//
// The contract, which is what keeps a deferred run's output identical to
// per-segment delivery:
//
//   - Each deferred leg is handed to HandleAt, with its own delivery time
//     and in delivery order, before the node's next real delivery (Handle),
//     before a Flush of the node's address returns, and by the end of the
//     Run in progress if it is due inside it.
//   - HandleAt may change only state that nothing reads before the node's
//     next real delivery or Flush, and must read only state that was the
//     same at the leg's time: a node that changes such state outside
//     Handle calls Flush first.
//   - HandleAt never sends, schedules, cancels, reads the engine's clock
//     or calls back into the network; it never completes a response either,
//     which is what the train's last segment, a real delivery, is for.
//   - Flush at T hands over the legs due strictly before T. A leg due at
//     exactly T is handed over after the event that flushed, so a node
//     must be indifferent to that order.
//
// Deferral is off while any tap is registered, because a tap sees each
// delivery at its instant; a node that does not implement DeferNode, and
// a source store's slots, always get one event per segment. That path is
// the reference the deferred one is tested against.
type DeferNode interface {
	Node
	// HandleAt processes a segment delivered at time at.
	HandleAt(seg tcpkit.Segment, at time.Duration)
}

// deferQueue is a deferring port's open trains and deferred legs.
type deferQueue struct {
	// trains are train records; a record lives while it has segments to
	// offer (left) or legs to hand over (refs), then joins free.
	trains []openTrain
	free   []int32
	open   int // records with left > 0
	// legs[head:] are the accepted segments' deliver legs not yet handed
	// over, in departure order, which on one downlink strictly ascends.
	legs []legRun
	head int
}

// openTrain is one deferred train: the template every segment but the
// last shares, and the cursor of the next segment still to be offered to
// the downlink — its arrival key (next, src, seq) and the spacing of the
// ones after it.
type openTrain struct {
	seg      tcpkit.Segment
	next     time.Duration
	gap      time.Duration
	src, seq uint64
	size     int32
	left     int32
	refs     int32
}

// legRun is a run of deliver legs recorded instead of queued: n legs of
// train record train, due at at, at+gap, at+2·gap, …. A backlogged
// downlink departs a train's equal-sized segments exactly one
// serialisation apart, so a response's legs take one or two runs, not a
// record each.
type legRun struct {
	at, gap  time.Duration
	n, train int32
}

// pending reports whether the queue has anything to offer or hand over.
func (q *deferQueue) pending() bool { return q.open > 0 || q.head < len(q.legs) }

// deferTrain defers the rest of the train ev carries to its deferring
// destination: the segment ev holds was just offered to the downlink, and
// depart and ok are the outcome. Its leg, if accepted, is recorded; the
// segments between it and the last become an open train whose arrivals
// catchUp offers; and ev is re-stamped as the last segment's arrival —
// the key, payload and size the per-segment cursor would reach.
func (n *Network) deferTrain(ev *Event, depart time.Duration, ok bool) {
	p := &ev.pkt
	q := &p.dst.dq
	mid := p.left - 1
	gap := serialise(int(p.size), p.rate)
	if ok || mid > 0 {
		i := q.newTrain(&p.seg)
		t := &q.trains[i]
		if ok {
			q.pushLeg(depart, i)
			t.refs++
		}
		if mid > 0 {
			t.next, t.gap, t.src, t.seq = ev.at+gap, gap, ev.src, ev.seq+1
			t.size, t.left = p.size, mid
			q.open++
		}
	}
	p.seg.PayloadLen = int(p.lastLen)
	p.size = int32(p.seg.WireSize())
	ev.at += time.Duration(mid)*gap + serialise(int(p.size), p.rate)
	ev.seq += uint64(p.left)
	p.left = 0
}

// newTrain returns a record for a train whose segments copy seg.
func (q *deferQueue) newTrain(seg *tcpkit.Segment) int32 {
	var i int32
	if k := len(q.free); k > 0 {
		i = q.free[k-1]
		q.free = q.free[:k-1]
	} else {
		i = int32(len(q.trains))
		q.trains = append(q.trains, openTrain{})
	}
	q.trains[i] = openTrain{seg: *seg}
	return i
}

// release frees train record i once nothing refers to it.
func (q *deferQueue) release(i int32) {
	if t := &q.trains[i]; t.left == 0 && t.refs == 0 {
		*t = openTrain{} // never pin a finished train's options
		q.free = append(q.free, i)
	}
}

// pushLeg records train's deliver leg due at at: it extends the last run
// when it is that train's and at is exactly one spacing on, and starts a
// run otherwise. A buffer whose front has been handed over is compacted
// before it would grow, so it stays as long as the most runs ever pending
// at once.
func (q *deferQueue) pushLeg(at time.Duration, train int32) {
	if k := len(q.legs); k > q.head {
		r := &q.legs[k-1]
		if r.train == train && (r.n == 1 || at == r.at+time.Duration(r.n)*r.gap) {
			if r.n == 1 {
				r.gap = at - r.at
			}
			r.n++
			return
		}
	}
	if len(q.legs) == cap(q.legs) && q.head > 0 {
		q.legs = q.legs[:copy(q.legs, q.legs[q.head:])]
		q.head = 0
	}
	q.legs = append(q.legs, legRun{at: at, n: 1, train: train})
}

// catchUp offers port p's downlink, in arrival-key order, every middle
// segment of its open trains whose arrival orders before the arrival key
// (at, src, seq) — exactly the arrivals per-segment delivery would have
// fired by then. A bound (T, 0, 0) takes the arrivals before T.
func (n *Network) catchUp(p *port, at time.Duration, src, seq uint64) {
	q := &p.dq
	for q.open > 0 {
		// The open train with the earliest next arrival, and the runner-up,
		// whose next arrival bounds how far the first may run alone.
		best, second := -1, -1
		for i := range q.trains {
			t := &q.trains[i]
			switch {
			case t.left == 0:
			case best < 0 || t.before(q.trains[best].key()):
				best, second = i, best
			case second < 0 || t.before(q.trains[second].key()):
				second = i
			}
		}
		t := &q.trains[best]
		if !t.before(at, src, seq) {
			return
		}
		for {
			depart, ok := p.down.transmit(t.next, int(t.size))
			if ok {
				q.pushLeg(depart, int32(best))
				t.refs++
			}
			t.next += t.gap
			t.seq++
			t.left--
			n.Eng.stats.Deferred++
			if t.left == 0 {
				q.open--
				q.release(int32(best))
				break
			}
			if second >= 0 && !t.before(q.trains[second].key()) {
				break
			}
			if !t.before(at, src, seq) {
				return
			}
		}
	}
}

// key returns the arrival key of t's next segment.
func (t *openTrain) key() (time.Duration, uint64, uint64) { return t.next, t.src, t.seq }

// before reports whether t's next arrival orders before the arrival key
// (at, src, seq) under less.
func (t *openTrain) before(at time.Duration, src, seq uint64) bool {
	if t.next != at {
		return t.next < at
	}
	if t.src != src {
		return t.src < src
	}
	return t.seq < seq
}

// drain hands port p's node the deferred legs due strictly before at, in
// delivery order.
func (n *Network) drain(p *port, at time.Duration) {
	q := &p.dq
	for q.head < len(q.legs) {
		r := &q.legs[q.head]
		t := &q.trains[r.train]
		for r.n > 0 && r.at < at {
			p.deferTo.HandleAt(t.seg, r.at)
			n.Eng.stats.Deferred++
			r.at += r.gap
			r.n--
			t.refs--
		}
		if r.n > 0 {
			break
		}
		q.head++
		q.release(r.train)
	}
	if q.head == len(q.legs) {
		q.legs, q.head = q.legs[:0], 0
	}
}

// settle brings every deferring port up to the time bound: the arrivals
// and deliver legs before it are offered and handed over.
func (n *Network) settle(bound time.Duration) {
	for _, p := range n.deferring {
		if p.dq.pending() {
			n.catchUp(p, bound, 0, 0)
			n.drain(p, bound)
		}
	}
}

// dropDeferred discards what no run can reach any more — the open trains
// and legs at or after the engine's declared end — and frees the buffers.
func (n *Network) dropDeferred() {
	for _, p := range n.deferring {
		p.dq = deferQueue{}
	}
}

// Flush hands the node at addr, if it defers train deliveries, every leg
// due strictly before now (see DeferNode). A node calls it before it
// changes, outside Handle, state that HandleAt reads or writes.
func (n *Network) Flush(addr Addr) {
	if p := n.ports[addr]; p != nil && p.dq.pending() {
		now := n.Eng.now
		n.catchUp(p, now, 0, 0)
		n.drain(p, now)
	}
}

// horizon is the exclusive arrival key of what the engine has fired: the
// arrivals before it have fired under per-segment delivery. Inside a Run,
// where only non-arrival events run node code, and after one, that is
// every arrival before now; after a Step that fired an arrival, it is
// that arrival and every one ordering before it.
func (e *Engine) horizon() (time.Duration, uint64, uint64) {
	if e.stepArr {
		return e.now, e.stepSrc, e.stepSeq + 1
	}
	return e.now, 0, 0
}

// deferredPending counts the deferred legs per-segment delivery would
// still have pending: those due after the horizon, or at it unless the
// event that set it was an arrival, which orders after every deliver leg
// at its instant.
func (n *Network) deferredPending() int {
	e := n.Eng
	at, src, seq := e.horizon()
	count := 0
	for _, p := range n.deferring {
		if !p.dq.pending() {
			continue
		}
		n.catchUp(p, at, src, seq)
		for _, r := range p.dq.legs[p.dq.head:] {
			for k := int32(0); k < r.n; k++ {
				if due := r.at + time.Duration(k)*r.gap; due > at || due == at && !e.stepArr {
					count++
				}
			}
		}
	}
	return count
}
