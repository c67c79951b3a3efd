package netsim

import (
	"math"
	"time"
)

// noLookahead marks a shard no other shard can send to: it may run every
// window all the way to the horizon.
const noLookahead = time.Duration(math.MaxInt64)

// Run executes the simulation until the given time, firing events at or
// before it (the sharded generalisation of Engine.Run).
//
// With one shard it simply drains that engine. With several it runs a
// conservative parallel discrete-event simulation: all shards advance
// together through lock-step time windows, with cross-shard packets
// queued in per-shard outboxes during a window and exchanged at the
// barrier between windows. Each shard's window is bounded by its own
// incoming lookahead — the minimum uplink latency over the other
// port-bearing shards plus the shard's own minimum downlink latency,
// maintained incrementally by Attach — which lower-bounds how far in the
// future any cross-shard packet can land on it. On heterogeneous
// topologies this is strictly wider than one global minimum (one fast
// link anywhere does not throttle every shard), so barriers are fewer.
// The canonical (time, source, sequence) arrival ordering (see
// Engine.scheduleArrival) makes the execution — and therefore every
// metric — byte-identical at every shard count and every window width.
//
// When some shard's incoming lookahead is zero (a zero-latency sender
// paired with a zero-latency receiver) the windows degenerate, and Run
// falls back to a serial merge of the shard heaps that preserves the same
// canonical order.
func (n *Network) Run(until time.Duration) {
	if len(n.shards) == 1 {
		n.Eng.Run(until)
		return
	}
	if la, ok := n.lookaheads(); ok {
		n.runWindows(until, la)
	} else {
		n.runMerged(until)
	}
	// Events at exactly `until` cannot spawn cross-shard work inside the
	// horizon (arrivals land strictly later), so each shard drains them —
	// and advances its clock to until — independently.
	n.exchange()
	for _, s := range n.shards {
		s.eng.Run(until)
	}
	n.exchange()
}

// lookaheads returns each shard's incoming lookahead — how far past the
// window's opening instant shard j may safely run — and whether windowed
// execution is possible at all (false when any shard's bound is zero).
func (n *Network) lookaheads() ([]time.Duration, bool) {
	ns := len(n.shards)
	la := make([]time.Duration, ns)
	ok := true
	for j := 0; j < ns; j++ {
		// The tightest sender elsewhere bounds what can land here.
		up := noLookahead
		for i := 0; i < ns; i++ {
			if i != j && n.hasPort[i] && n.minUp[i] < up {
				up = n.minUp[i]
			}
		}
		if up == noLookahead || !n.hasPort[j] {
			la[j] = noLookahead
			continue
		}
		la[j] = up + n.minDown[j]
		if la[j] == 0 {
			ok = false
		}
	}
	return la, ok
}

// exchange flushes every shard's outboxes into the destination engines.
// Runs single-threaded between windows; the barrier orders it with the
// shard goroutines. The outbox slices and the destination heaps are
// pre-sized per batch and reused across windows, so a steady cross-shard
// flow settles into zero allocations here too.
func (n *Network) exchange() {
	for _, s := range n.shards {
		for d, box := range s.outbox {
			if len(box) == 0 {
				continue
			}
			deng := n.shards[d].eng
			deng.grow(len(box))
			for i := range box {
				deng.scheduleArrival(&box[i])
			}
			s.outbox[d] = box[:0]
		}
	}
}

// minNext returns the earliest live event time across all shards.
func (n *Network) minNext() (time.Duration, bool) {
	var m time.Duration
	found := false
	for _, s := range n.shards {
		if at, ok := s.eng.NextEventAt(); ok && (!found || at < m) {
			m, found = at, true
		}
	}
	return m, found
}

// runWindows is the parallel path: the shards fire the events of one
// window concurrently on the window barrier's workers (see barrier.go),
// then the coordinator exchanges cross-shard packets before the next
// window opens. Windows start at the earliest pending event, so idle
// stretches cost one barrier, not many; each shard runs to its own end —
// the window start plus its incoming lookahead — so shards behind slow
// links burn through more events per barrier.
func (n *Network) runWindows(until time.Duration, la []time.Duration) {
	if n.barrierWait == nil {
		n.barrierWait = make([]time.Duration, len(n.shards))
	}
	b := newWindowBarrier(n.shards)
	defer func() {
		b.close()
		n.releases += b.releases
	}()
	ends := make([]time.Duration, len(n.shards))
	for {
		n.exchange()
		m, ok := n.minNext()
		if !ok || m >= until {
			return
		}
		for j := range ends {
			ends[j] = until
			if la[j] != noLookahead {
				if la[j] < until-m {
					ends[j] = m + la[j]
				}
				// Only bounded shards feed the lookahead stats: an
				// unreachable shard's horizon-wide window says nothing
				// about the adaptive widening.
				n.observeLookahead(ends[j] - m)
			}
		}
		b.run(ends)
		n.windows++
		b.addWaits(n.barrierWait)
	}
}

// observeLookahead folds one applied window width into the ShardStats
// min/mean/max — determinism-neutral observability for the adaptive
// widening.
func (n *Network) observeLookahead(w time.Duration) {
	if n.lookN == 0 || w < n.lookMin {
		n.lookMin = w
	}
	if w > n.lookMax {
		n.lookMax = w
	}
	n.lookSum += w
	n.lookN++
}

// runMerged is the zero-lookahead fallback: a serial merge that always
// fires the globally earliest event. Same-time events on different shards
// belong to different nodes and commute, so picking the lowest shard first
// is as canonical as any rule.
func (n *Network) runMerged(until time.Duration) {
	for {
		n.exchange()
		var best *netShard
		var bestAt time.Duration
		for _, s := range n.shards {
			if at, ok := s.eng.NextEventAt(); ok && (best == nil || at < bestAt) {
				best, bestAt = s, at
			}
		}
		if best == nil || bestAt >= until {
			return
		}
		best.eng.Step()
	}
}
