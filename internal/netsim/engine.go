// Package netsim is a deterministic discrete-event network simulator: the
// substrate standing in for the paper's DETER testbed. It provides a clocked
// event engine, nodes addressed by IPv4 address, and access links with
// bandwidth, propagation latency, and drop-tail queues. Packet taps play the
// role of tcpdump.
//
// A Network runs on one engine, and the engine runs on the calling
// goroutine. Packets arriving at the same instant are ordered by a
// canonical key — the sender's address, then the packet's number on the
// network's send counter — rather than by scheduling order (see less).
//
// The scheduling hot path is allocation-free in steady state: events are
// plain structs recycled through a per-engine free-list, the pending queue
// is two monomorphic 4-ary min-heaps specialised for *Event (no interface
// boxing, no container/heap indirection) — timers in one, packet legs in
// the other, popped as one queue by comparing their heads — and packet
// deliveries carry their payload as a typed message on the event itself —
// dispatched by a small fixed set of event kinds — instead of a per-packet
// closure.
//
// The split exists because of what a flood cell keeps pending: two thirds
// to five sixths of it is cancelled timers (SYN RTOs, response timeouts and
// idle timers are set seconds ahead and cancelled within milliseconds, and
// cancellation is lazy), which in one heap sit under every packet leg's
// sift. In a heap of their own they cost the ~60–100 live packet legs
// nothing. See docs/PERFORMANCE.md "Timer heap and in-place delivery".
//
// A burst of back-to-back segments from one sender to one destination — a
// server's MSS-segmented response — travels as one packet train
// (Network.SendTrain): one event that the destination's engine expands a
// segment at a time, at the times, in the order and with the taps the
// separate packets would have had. See docs/PERFORMANCE.md "Packet
// trains".
//
// A downlink serialises what it accepts in order, so a real port's pending
// deliver legs wait in a FIFO of their own, linked through the events, and
// only its head waits in the packet heap: the packet heap holds trains and
// one leg per busy downlink, not every segment a slower downlink has yet
// to serialise. See docs/PERFORMANCE.md "Deliver FIFOs".
//
// A node that does nothing with a train's segments but the last except
// count them — the benign client, whose 100 kB responses are most of a
// figure grid's packet legs — can implement DeferNode. Then a train fires
// its arrival event twice, at its first segment and at its last; the
// segments between are offered to the downlink lazily, in arrival-key
// order, before anything could read that downlink, and their deliver legs
// are recorded on the port and handed to HandleAt before the node's next
// real delivery, a Flush or the end of the Run. Taps turn this off. See
// docs/PERFORMANCE.md "Deferred train delivery".
package netsim

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// eventKind selects the dispatch path when an event fires. Keeping the
// set small and fixed is what lets the packet path avoid closures: the
// payload travels on the event, the behaviour lives in Engine.fire.
type eventKind uint8

const (
	// kindFunc runs a captured callback — timers, Poisson generators,
	// RTOs. The closure is the caller's; the engine only recycles the
	// event shell.
	kindFunc eventKind = iota
	// kindArrival is the downlink-queue leg of a packet delivery: the
	// event's pkt payload is offered to the destination's downlink
	// transmitter, and on success the segment is queued as kindDeliver at
	// the serialisation-complete time — on the same event for a train's
	// last segment, on a pooled one for the others.
	kindArrival
	// kindDeliver hands the pkt payload's segment to the destination node.
	kindDeliver
	// kindSend is a source store's deferred send (SourceStore.SendAt at a
	// future time): pkt.seg leaves through slot pkt.slot of the store
	// behind pkt.dst. It is a timer — timer heap, timer order, counted in
	// TimersFired — whose payload travels on the event, not in a closure.
	kindSend
)

// Event is a scheduled occurrence. Events are pooled: once fired (or
// discarded after Cancel) the struct returns to its engine's free-list and
// will be reused, so external code never holds a *Event — cancellation
// goes through the generation-checked Timer handle instead.
type Event struct {
	at time.Duration
	// seq is the engine-local scheduling order, except on a kindArrival
	// event: there src and seq are the canonical (sender address, packet
	// number) key that orders arrivals at equal times. Among one sender's
	// arrivals the packet numbers rise in send order, so the key follows
	// the sending node's history, not when the engine happened to queue
	// the arrival.
	seq       uint64
	src       uint64
	kind      eventKind
	cancelled bool
	// gen increments every time the event returns to the free-list; a
	// Timer handle carries the generation it was issued under, so a stale
	// Cancel after the event fired (and the struct was reused) is a no-op
	// instead of poisoning the new occupant.
	gen uint32
	fn  func() // kindFunc payload
	pkt packet // kindArrival / kindDeliver / kindSend payload
	// next links a kindDeliver leg to the one behind it in its downlink's
	// FIFO (see Engine.deliver).
	next *Event
}

// Timer is a cancellable handle to a scheduled callback. The zero Timer
// is valid and inert. Handles stay safe after the event fires: the pooled
// event's generation moves on and Cancel quietly misses.
type Timer struct {
	ev  *Event
	gen uint32
}

// Cancel prevents the pending callback from firing. Cancelling a zero
// Timer, or one whose event already fired, is a no-op.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.cancelled = true
	}
}

// At returns the event's scheduled time, or false if it already fired
// (its pooled slot moved on) or the handle is zero.
func (t Timer) At() (time.Duration, bool) {
	if t.ev == nil || t.ev.gen != t.gen {
		return 0, false
	}
	return t.ev.at, true
}

// less is the canonical firing order: time, then locally scheduled events
// before packet arrivals at the same instant, arrivals among themselves by
// the canonical (src, seq) key, and other events by engine
// scheduling order. It is a strict total order (seq is unique per engine,
// and (src, seq) per pending arrival), so neither a heap's internal layout
// nor which of the two heaps an event waits in can influence pop order.
//
// An arrival's seq is its packet's number on the network's one send
// counter, but less reads it only between arrivals of one sender, which
// are numbered in that sender's send order: a train reserves its
// segments' numbers consecutively, and every later send from the same
// address takes a larger one. So the order is the one a counter per
// sender would give, and other senders' traffic cannot move it.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	aArr, bArr := a.kind == kindArrival, b.kind == kindArrival
	if aArr != bArr {
		return !aArr
	}
	if aArr && a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event clock. Time starts at zero;
// events at equal times fire in scheduling order (arrival events are the
// exception — see the less doc).
type Engine struct {
	now time.Duration
	// The pending queue: kindFunc and kindSend events wait in timers,
	// kindArrival and kindDeliver events in packets, and the next event to
	// fire is the smaller of the two heads under less. A real port's
	// deliver legs wait in its downlink FIFO, of which only the head is in
	// packets; held counts the legs behind the heads.
	timers  eventHeap
	packets eventHeap
	held    int
	seq     uint64
	fired   uint64
	// limit is the exclusive time bound of the Run in progress, zero
	// outside one: the licence runArrival needs to fire a leg in place.
	limit time.Duration
	// end is the exclusive bound RunToEnd declared, zero while none is:
	// nothing at or after it will ever fire, which lets a RunQueue count
	// the jobs queued behind one due there instead of storing them.
	end   time.Duration
	stats EngineStats
	// free is the event pool. Steady-state simulation cycles events
	// between the heaps and free without touching the allocator.
	free []*Event
	// net dispatches kindArrival/kindDeliver events; set when the engine
	// is owned by a Network. A standalone engine only sees kindFunc.
	net *Network
	// stepArr, stepSrc and stepSeq keep the arrival key of the event the
	// last Step fired, when it was an arrival, for horizon; a Run clears
	// stepArr.
	stepArr          bool
	stepSrc, stepSeq uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// alloc takes an event from the free-list (or the allocator when the pool
// is dry). Pool entries were scrubbed by recycle, so every field except
// gen starts zero.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// recycle scrubs a finished event and returns it to the pool. The
// generation bump invalidates outstanding Timer handles, and clearing fn
// and pkt drops the references they pin (closures, segments, ports) so
// the pool never extends object lifetimes.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.at = 0
	ev.seq = 0
	ev.src = 0
	ev.kind = kindFunc
	ev.cancelled = false
	ev.fn = nil
	ev.pkt = packet{}
	ev.next = nil
	e.free = append(e.free, ev)
}

// eventHeap is a monomorphic 4-ary min-heap of events ordered by less.
type eventHeap []*Event

// push appends ev and restores the heap: a 4-ary sift-up. The shallow
// 4-ary shape trades one extra comparison per level for half the levels —
// a clear win when every node is a hot *Event comparison instead of a
// heap.Interface call.
func (hp *eventHeap) push(ev *Event) {
	h := append(*hp, ev)
	*hp = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event (heap must be non-empty).
func (hp *eventHeap) pop() *Event {
	h := *hp
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*hp = h
	if n == 0 {
		return root
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(h[c], h[min]) {
				min = c
			}
		}
		if !less(h[min], last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
	return root
}

// pushTimer queues a kindFunc or kindSend event.
func (e *Engine) pushTimer(ev *Event) {
	e.timers.push(ev)
	e.stats.PeakTimers = max(e.stats.PeakTimers, len(e.timers))
}

// pushPacket queues a kindArrival or kindDeliver event.
func (e *Engine) pushPacket(ev *Event) {
	e.packets.push(ev)
	e.stats.PeakPackets = max(e.stats.PeakPackets, len(e.packets))
}

// before reports whether ev orders ahead of every pending event.
func (e *Engine) before(ev *Event) bool {
	return (len(e.timers) == 0 || less(ev, e.timers[0])) &&
		(len(e.packets) == 0 || less(ev, e.packets[0]))
}

// deliver queues the deliver leg d, or fires it in place when the loop in
// progress would pop it next: d orders before both heads and before next —
// the arrival its train holds outside the heap meanwhile, nil when none —
// and lies inside the loop's bound.
//
// A real port's pending legs form a FIFO in departure order, linked
// through Event.next from the head — the one leg in the packet heap — to
// port.lastLeg. d joins behind a non-empty FIFO, and fire arms each next
// leg when its predecessor fires, under the (at, seq) it took here: the
// RunQueue argument, since a downlink's departures and the seqs its legs
// take both ascend. A leg that would join a FIFO could not fire in place
// anyway, because it orders after the FIFO's head. Source-store slots
// share one virtual port but not one downlink, so their legs always go
// straight to the heap.
func (e *Engine) deliver(d, next *Event) {
	dst := d.pkt.dst
	if dst.lastLeg != nil {
		dst.lastLeg.next = d
		dst.lastLeg = d
		e.held++
		e.stats.DeliversQueued++
		return
	}
	if d.at < e.limit && e.before(d) && (next == nil || less(d, next)) {
		e.stats.InPlace++
		e.fire(d)
		return
	}
	e.pushPacket(d)
	if dst.store == nil {
		dst.lastLeg = d
	}
}

// Schedule queues fn to run after delay (clamped at zero) and returns a
// cancellable handle.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn at an absolute time (clamped to now).
func (e *Engine) ScheduleAt(at time.Duration, fn func()) Timer {
	if at < e.now {
		at = e.now
	}
	ev := e.scheduleSeq(at, e.seq, fn)
	e.seq++
	return Timer{ev: ev, gen: ev.gen}
}

// scheduleSeq queues fn at an absolute time under a sequence number the
// caller took from e.seq — now (ScheduleAt) or earlier (RunQueue, which
// defers the insertion but not the place in the firing order).
func (e *Engine) scheduleSeq(at time.Duration, seq uint64, fn func()) *Event {
	ev := e.alloc()
	ev.at = at
	ev.seq = seq
	ev.fn = fn
	e.pushTimer(ev)
	return ev
}

// scheduleSend queues a kindSend event at at (after now) under the next
// engine seq — the place ScheduleAt would give a closure doing the same.
func (e *Engine) scheduleSend(at time.Duration, store *port, slot int32, seg *tcpkit.Segment) {
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.kind = kindSend
	ev.pkt.dst = store
	ev.pkt.slot = slot
	ev.pkt.seg = *seg
	e.pushTimer(ev)
}

// scheduleArrival queues the downlink leg of a packet delivery — of a
// train's first segment — at time at, which the caller keeps at or after
// now; runArrival re-queues the train under each next segment's key. At
// equal times arrivals fire after locally scheduled events and order
// among themselves by (src, seq): the sender's address, then the packet's
// number on Network.seq, which rises in each sender's send order. The
// (src, seq) pair must be unique per pending arrival.
func (e *Engine) scheduleArrival(at time.Duration, src, seq uint64, pkt *packet) {
	ev := e.alloc()
	ev.at = at
	ev.seq = seq
	ev.kind = kindArrival
	ev.src = src
	ev.pkt = *pkt
	e.pushPacket(ev)
}

// fire advances the clock to one live event, dispatches it and recycles
// it (directly, or after its follow-up leg for arrivals).
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	e.fired++
	switch ev.kind {
	case kindFunc:
		e.stats.TimersFired++
		fn := ev.fn
		e.recycle(ev)
		fn()
	case kindArrival:
		// The network re-queues ev as the train's next arrival, re-stamps
		// it as the last segment's kindDeliver leg, or recycles it (the
		// last segment dropped).
		e.net.runArrival(e, ev)
	case kindDeliver:
		p := ev.pkt
		// A leg fired from the heap heads its port's FIFO, and one fired
		// in place had an empty FIFO to itself: lastLeg is set only in
		// the first case.
		if p.dst.lastLeg != nil {
			if ev.next == nil {
				p.dst.lastLeg = nil
			} else {
				e.held--
				e.pushPacket(ev.next)
			}
		}
		e.recycle(ev)
		e.net.runDeliver(e, p)
	case kindSend:
		e.stats.TimersFired++
		p := &ev.pkt
		p.dst.store.transmit(p.slot, &p.seg)
		e.recycle(ev)
	}
}

// live discards cancelled events off the front of the queue and returns
// the heap whose head — the smaller of the two heads under less — is the
// earliest live event, or nil when none is pending. Cancellation is lazy:
// a cancelled timer waits in its heap until its time comes and is dropped
// here.
func (e *Engine) live() *eventHeap {
	for {
		h := &e.packets
		if len(e.timers) > 0 && (len(e.packets) == 0 || less(e.timers[0], e.packets[0])) {
			h = &e.timers
		} else if len(e.packets) == 0 {
			return nil
		}
		if !(*h)[0].cancelled {
			return h
		}
		e.stats.Discarded++
		e.recycle(h.pop())
	}
}

// Step fires the next pending event and reports whether one existed. It
// panics if that event is past the end RunToEnd declared.
//
// When nothing is left to fire, it hands over the deferred legs still
// held for DeferNodes (see DeferNode) and reports false.
func (e *Engine) Step() bool {
	h := e.live()
	if h == nil {
		if e.net != nil && len(e.net.deferring) > 0 {
			e.net.settle(1<<63 - 1)
		}
		return false
	}
	if e.end != 0 && (*h)[0].at >= e.end {
		panic("netsim: Step past the engine's declared end")
	}
	ev := h.pop()
	e.stepArr, e.stepSrc, e.stepSeq = ev.kind == kindArrival, ev.src, ev.seq
	e.fire(ev)
	return true
}

// Fired returns how many events this engine has executed.
func (e *Engine) Fired() uint64 { return e.fired }

// Run fires all events scheduled at or before until and then advances the
// clock to until. Cancelled events are discarded before the time check, so
// a cancelled head never lets a later live event fire past until. Deferred
// train segments arriving and delivered at or before until are offered
// and handed over before it returns (see DeferNode). It panics if until is
// past the end RunToEnd declared.
func (e *Engine) Run(until time.Duration) {
	end := exclusive(until)
	if e.end != 0 && end > e.end {
		panic("netsim: Run past the engine's declared end")
	}
	e.limit = end
	e.stepArr = false
	for {
		h := e.live()
		if h == nil || (*h)[0].at >= end {
			break
		}
		e.fire(h.pop())
	}
	e.limit = 0
	if e.net != nil {
		e.net.settle(end)
	}
	if e.now < until {
		e.now = until
	}
}

// RunToEnd is the final Run: until is the last instant the engine will
// ever reach, and a later Run or Step past it panics. Jobs a RunQueue
// would complete after until are counted there, not stored, and deferred
// train segments due after it are dropped with their buffers. An end once
// declared stands.
func (e *Engine) RunToEnd(until time.Duration) {
	if e.end == 0 {
		e.end = exclusive(until)
	}
	e.Run(until)
	if e.net != nil && exclusive(until) == e.end {
		e.net.dropDeferred()
	}
}

// exclusive returns the exclusive time bound of a run to until.
func exclusive(until time.Duration) time.Duration {
	if until+1 < until {
		return until // saturate at the end of time
	}
	return until + 1
}

// Pending returns the number of events yet to fire, possibly cancelled:
// both heaps together, the deliver legs waiting behind the heads of the
// downlink FIFOs, and the deferred deliver legs not yet due (see
// DeferNode).
func (e *Engine) Pending() int {
	n := len(e.timers) + len(e.packets) + e.held
	if e.net != nil {
		n += e.net.deferredPending()
	}
	return n
}

// EngineStats counts what an engine's pending queue did. Every field is a
// pure function of the simulation — observability for -verbose runs and
// tests, never part of a result.
type EngineStats struct {
	TimersFired     uint64
	PacketLegsFired uint64 // arrival and deliver legs, both in-place counts included
	InPlace         uint64 // deliver legs fired without entering the heap
	// ArrivalsInPlace counts arrival legs a train fired straight after its
	// previous segment's, without a heap round trip (see runArrival).
	ArrivalsInPlace uint64
	// DeliversQueued counts deliver legs that waited in a downlink FIFO
	// behind its head before entering the heap (see deliver).
	DeliversQueued uint64
	// Deferred counts the packet legs of trains to DeferNodes that no
	// event fired: middle segments offered to the downlink lazily, and
	// deliver legs handed to HandleAt. PacketLegsFired + Deferred is what
	// one event per leg would have fired.
	Deferred   uint64
	Discarded  uint64 // cancelled events dropped on reaching the front
	PeakTimers int    // longest the timer heap has been
	// PeakPackets is the longest the packet heap has been. It is not the
	// most packets in flight: a train waits in the heap as one event
	// however many of its segments are still to arrive, and a downlink as
	// one deliver leg however many are queued on it.
	PeakPackets int
}

// Stats returns the engine's queue counters.
func (e *Engine) Stats() EngineStats {
	st := e.stats
	st.PacketLegsFired = e.fired - st.TimersFired
	return st
}

// PoolSize returns the free-list length — test and benchmark
// observability for the recycling contract.
func (e *Engine) PoolSize() int { return len(e.free) }
