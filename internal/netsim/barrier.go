package netsim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Spin tuning for the window barrier. A waiter polls its word pollsPerYield
// times between runtime.Gosched calls — the yield is what keeps
// GOMAXPROCS=1 and shards > cores live and cheap: a spinner hands its P to
// whoever holds the work it is waiting for after a few dozen loads — and
// parks on its channel after spinRounds yields. The bound has to outlast
// the slowest shard's window with room for its tail, or windows pay a
// futex wake-up (~14 µs here) again: a paper-shaped flood window is ~11 µs
// on its busiest shard, and the full spin measures ~65 µs on the reference
// host, which leaves 5–9 parks in a 7,039-window cell; half that bound
// parks 60–180 times and was seen to fall back to the channel barrier's
// speed (docs/PERFORMANCE.md "Window barrier"). Both only shape wall time,
// never results.
const (
	pollsPerYield = 64
	spinRounds    = 400
)

// parker is a spin-then-park wait on one atomic word with a single waiter.
// The signaller makes the awaited condition true and then calls signal; the
// waiter publishes parked before its final check of the word. Go's atomics
// are sequentially consistent, so either that check sees the new value or
// signal sees parked — the wake-up cannot be lost. Whoever wins the
// parked CAS owns the 1-slot wake channel's next token, so at most one is
// ever outstanding and signal never blocks.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
}

// await returns once word holds want.
func (p *parker) await(word *atomic.Int32, want int32) {
	for {
		for round := 0; round < spinRounds; round++ {
			for poll := 0; poll < pollsPerYield; poll++ {
				if word.Load() == want {
					return
				}
			}
			runtime.Gosched()
		}
		p.parked.Store(true)
		if word.Load() == want {
			if !p.parked.CompareAndSwap(true, false) {
				// The signaller claimed the flag first: its token is on
				// the way and must not outlive this wait.
				<-p.wake
			}
			return
		}
		<-p.wake
	}
}

// signal wakes the waiter if it parked. Call after storing the awaited
// value.
func (p *parker) signal() {
	if p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// barrierWorker is the hand-off state of one shard worker. The coordinator
// writes end (and stop) and then bumps seq; the worker reads them after
// observing the bump, runs, stamps its finish and then decrements the
// barrier's pending count — every plain field is ordered by one of the two
// atomics. The trailing pad keeps one worker's polled word off its
// neighbour's cache line wherever the slice lands.
type barrierWorker struct {
	seq  atomic.Int32
	park parker
	end  time.Duration
	stop bool
	_    [64]byte
}

// windowBarrier runs the shards of a network through rounds of concurrent
// windows: shard 0 on the calling (coordinating) goroutine, every other
// shard on a persistent worker released through its own sequence word. It
// is the one place netsim starts goroutines and the only synchronisation
// between shard engines: run returns after every released shard finished,
// so the coordinator may touch any shard's state between rounds.
type windowBarrier struct {
	shards  []*netShard
	workers []barrierWorker // workers[i-1] drives shards[i]
	// finish[i] is shard i's wall-clock completion of the last round,
	// written by whoever ran it (the round's opening for a shard left
	// out) and read by the coordinator after the round.
	finish []time.Time

	// pending counts released workers still running; the last one to
	// finish signals coord.
	pending atomic.Int32
	coord   parker

	releases uint64         // worker hand-offs, for the barrier tests
	exited   sync.WaitGroup // joins the workers in close
}

// newWindowBarrier starts one worker per shard beyond the first. The caller
// must close the barrier.
func newWindowBarrier(shards []*netShard) *windowBarrier {
	b := &windowBarrier{
		shards:  shards,
		workers: make([]barrierWorker, len(shards)-1),
		finish:  make([]time.Time, len(shards)),
		coord:   parker{wake: make(chan struct{}, 1)},
	}
	b.exited.Add(len(b.workers))
	for i := range b.workers {
		w := &b.workers[i]
		w.park.wake = make(chan struct{}, 1)
		//tcpz:allow nodeterm — shard workers run one window concurrently; run's barrier orders all cross-shard state: pinned by the shard determinism matrix and TestBarrier*
		go b.work(w, i+1)
	}
	return b
}

func (b *windowBarrier) work(w *barrierWorker, shard int) {
	defer b.exited.Done()
	eng := b.shards[shard].eng
	for next := int32(1); ; next++ {
		w.park.await(&w.seq, next)
		if w.stop {
			return
		}
		eng.RunBefore(w.end)
		//tcpz:allow nodeterm — wall clock feeds only ShardStats barrier-wait observability, never simulation state or sink bytes
		b.finish[shard] = time.Now()
		if b.pending.Add(-1) == 0 {
			b.coord.signal()
		}
	}
}

// run executes one round: shard i fires its events strictly before
// ends[i]. A shard with no live event inside its window — always the case
// for an end at or before its clock — is neither released nor waited for.
func (b *windowBarrier) run(ends []time.Duration) {
	//tcpz:allow nodeterm — wall clock feeds only ShardStats barrier-wait observability, never simulation state or sink bytes
	open := time.Now()
	for i := range b.workers {
		w := &b.workers[i]
		if at, ok := b.shards[i+1].eng.NextEventAt(); !ok || at >= ends[i+1] {
			b.finish[i+1] = open
			continue
		}
		w.end = ends[i+1]
		b.releases++
		b.pending.Add(1)
		w.seq.Add(1)
		w.park.signal()
	}
	b.shards[0].eng.RunBefore(ends[0])
	//tcpz:allow nodeterm — wall clock feeds only ShardStats barrier-wait observability, never simulation state or sink bytes
	b.finish[0] = time.Now()
	b.coord.await(&b.pending, 0)
}

// addWaits folds the last round into wait: each shard's gap between its
// own finish and the round's slowest shard's. A shard that was not
// released counts as finished when the round opened.
func (b *windowBarrier) addWaits(wait []time.Duration) {
	var last time.Time
	for _, at := range b.finish {
		if at.After(last) {
			last = at
		}
	}
	for i, at := range b.finish {
		wait[i] += last.Sub(at)
	}
}

// close stops the workers and returns once every one has exited.
func (b *windowBarrier) close() {
	for i := range b.workers {
		w := &b.workers[i]
		w.stop = true
		w.seq.Add(1)
		w.park.signal()
	}
	b.exited.Wait()
}
