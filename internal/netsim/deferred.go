package netsim

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// DeferNode is a Node that takes the deliveries of a packet train's
// segments before its last one late, a run of them per call, instead of
// as an engine event each. To such a destination a train's arrival event fires
// twice, at its first segment and at its last: the segments between are
// offered to the downlink lazily, and every accepted segment but the last
// is recorded on the port as a deferred leg — its delivery time and the
// train it belongs to — rather than queued. The last segment stays a real
// deliver event and reaches Handle.
//
// The contract, which is what keeps a deferred run's output identical to
// per-segment delivery:
//
//   - Each deferred leg is handed to HandleRun, with its own delivery time
//     and in delivery order, before the node's next real delivery (Handle),
//     before a Flush of the node's address returns, and by the end of the
//     Run in progress if it is due inside it.
//   - HandleRun may change only state that nothing reads before the node's
//     next real delivery or Flush, and must read only state that was the
//     same at the leg's time: a node that changes such state outside
//     Handle calls Flush first.
//   - HandleRun never sends, schedules, cancels, reads the engine's clock
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
	// HandleRun processes n ≥ 1 copies of a segment, delivered at times
	// at, at+gap, …, at+(n−1)·gap: n deliveries of one train's equal
	// segments, in one call.
	HandleRun(seg tcpkit.Segment, at, gap time.Duration, n int)
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
			q.pushRun(depart, 0, 1, i)
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

// pushRun records train's n deliver legs due at at, at+gap, …: it extends
// the last run when that is the train's and the legs continue its
// spacing — a run of one leg takes any spacing — and starts a run
// otherwise. A buffer whose front has been handed over is compacted
// before it would grow, so it stays as long as the most runs ever pending
// at once.
func (q *deferQueue) pushRun(at, gap time.Duration, n, train int32) {
	if k := len(q.legs); k > q.head {
		r := &q.legs[k-1]
		g := r.gap
		if r.n == 1 {
			g = at - r.at
		}
		if r.train == train && at == r.at+time.Duration(r.n)*g && (n == 1 || gap == g) {
			r.gap = g
			r.n += n
			return
		}
	}
	if len(q.legs) == cap(q.legs) && q.head > 0 {
		q.legs = q.legs[:copy(q.legs, q.legs[q.head:])]
		q.head = 0
	}
	q.legs = append(q.legs, legRun{at: at, gap: gap, n: n, train: train})
}

// due returns how many of r's legs are due strictly before at.
func (r *legRun) due(at time.Duration) int32 {
	if r.at >= at {
		return 0
	}
	if r.gap > 0 {
		if k := (at-r.at-1)/r.gap + 1; k < time.Duration(r.n) {
			return int32(k)
		}
	}
	return r.n
}

// catchUp offers port p's downlink, in arrival-key order, every middle
// segment of its open trains whose arrival orders before the arrival key
// (at, src, seq) — exactly the arrivals per-segment delivery would have
// fired by then. A bound (T, 0, 0) takes the arrivals before T. The
// train with the earliest next arrival runs alone, a stretch at a time
// (see offer), up to the bound and to the runner-up's next arrival.
func (n *Network) catchUp(p *port, at time.Duration, src, seq uint64) {
	q := &p.dq
	for q.open > 0 {
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
		m := t.due(at, src, seq)
		if m == 0 {
			return
		}
		if second >= 0 {
			m = min(m, t.due(q.trains[second].key()))
		}
		n.offer(p, int32(best), m)
		if t.left == 0 {
			q.open--
			q.release(int32(best))
		}
	}
}

// offer offers the next m segments of open train i, which arrive gap
// apart, to p's downlink and records the legs it accepts. Unless one
// would be dropped, that is arithmetic: from start = max(next arrival,
// busyUntil) each segment departs svc after the previous one while the
// link is still busy with it — the queued phase, whose waits change by
// svc−gap a segment — and svc after its own arrival once the link has
// drained, gap apart — the idle phase. A stretch whose first or last
// wait exceeds the backlog is offered a segment at a time.
func (n *Network) offer(p *port, i, m int32) {
	q, x := &p.dq, &p.down
	t := &q.trains[i]
	svc := serialise(int(t.size), x.cfg.RateBps)
	start := max(t.next, x.busyUntil)
	wait := start - t.next
	if max(wait, wait+time.Duration(m-1)*(svc-t.gap)) <= x.cfg.MaxBacklog {
		queued := m
		if svc < t.gap {
			if k := wait / (t.gap - svc); k < time.Duration(m-1) {
				queued = int32(k) + 1
			}
		}
		q.pushRun(start+svc, svc, queued, i)
		x.busyUntil = start + time.Duration(queued)*svc
		if idle := m - queued; idle > 0 {
			first := t.next + time.Duration(queued)*t.gap + svc
			q.pushRun(first, t.gap, idle, i)
			x.busyUntil = first + time.Duration(idle-1)*t.gap
		}
		x.stats.SentPackets += uint64(m)
		x.stats.SentBytes += uint64(m) * uint64(t.size)
		t.refs += m
		t.next += time.Duration(m) * t.gap
		t.seq += uint64(m)
		t.left -= m
	} else {
		for k := int32(0); k < m; k++ {
			if depart, ok := x.transmit(t.next, int(t.size)); ok {
				q.pushRun(depart, 0, 1, i)
				t.refs++
			}
			t.next += t.gap
			t.seq++
			t.left--
		}
	}
	n.Eng.stats.Deferred += uint64(m)
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

// due returns how many of t's segments still to be offered arrive before
// the arrival key (at, src, seq) under less: those strictly before at,
// plus, when one arrives exactly at at, that one if (src, seq) breaks the
// tie its way.
func (t *openTrain) due(at time.Duration, src, seq uint64) int32 {
	if t.next > at {
		return 0
	}
	d := at - t.next
	if t.gap <= 0 { // every segment arrives at next
		switch {
		case d > 0 || t.src < src:
			return t.left
		case t.src == src && seq > t.seq:
			return int32(min(seq-t.seq, uint64(t.left)))
		}
		return 0
	}
	var k time.Duration // arrivals strictly before at
	if d > 0 {
		k = (d-1)/t.gap + 1
	}
	if k < time.Duration(t.left) && d%t.gap == 0 && (t.src < src || t.src == src && t.seq+uint64(k) < seq) {
		k++ // segment k arrives at at and orders first
	}
	return int32(min(k, time.Duration(t.left)))
}

// drain hands port p's node the deferred legs due strictly before at, in
// delivery order, a run at a time.
func (n *Network) drain(p *port, at time.Duration) {
	q := &p.dq
	for q.head < len(q.legs) {
		r := &q.legs[q.head]
		if k := r.due(at); k > 0 {
			t := &q.trains[r.train]
			p.deferTo.HandleRun(t.seg, r.at, r.gap, int(k))
			n.Eng.stats.Deferred += uint64(k)
			r.at += time.Duration(k) * r.gap
			r.n -= k
			t.refs -= k
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
// changes, outside Handle, state that HandleRun reads or writes.
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
	done := at // the legs due before done have been delivered
	if e.stepArr {
		done = exclusive(at)
	}
	count := 0
	for _, p := range n.deferring {
		if !p.dq.pending() {
			continue
		}
		n.catchUp(p, at, src, seq)
		for _, r := range p.dq.legs[p.dq.head:] {
			count += int(r.n - r.due(done))
		}
	}
	return count
}
