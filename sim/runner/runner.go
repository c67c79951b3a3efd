// Package runner is the experiment execution subsystem: a work-stealing
// goroutine pool that fans independent jobs — the expanded cells of a
// sweep.Grid — out across the machine's cores. Results come back in
// submission order, and a job's outcome depends only on its own inputs
// (each simulated scenario carries its own seed), so output is
// bit-for-bit identical at any worker count. sweep.Stream keeps that
// guarantee on the sink path by re-ordering completions.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Stats describes how one Map/ForEachStats call executed — the pool's
// backpressure signals for tuning worker counts on big machines. All
// numbers are observational: they vary run to run with goroutine
// scheduling and never feed back into results.
type Stats struct {
	// Workers is the effective pool width (after clamping to the job
	// count).
	Workers int
	// Jobs is the number of jobs claimed (equals n unless a failure
	// stopped the pool early).
	Jobs int64
	// LocalClaims counts jobs a worker popped from its own shard;
	// Steals counts jobs claimed from another worker's shard. A high
	// steal share means the static split mismatched per-job cost.
	LocalClaims int64
	Steals      int64
	// FailedStealScans counts scans of the victim table that claimed
	// nothing (the pool draining, or races lost) — idle pressure.
	FailedStealScans int64
	// MeanQueueDepth is the mean number of unclaimed jobs observed at
	// each claim: how much runway the pool had, on average, when a
	// worker came back for work.
	MeanQueueDepth float64
}

// Map runs fn(i) for every i in [0, n) on a work-stealing pool of the
// given width and returns the results ordered by index; see ForEachStats
// for the pool's width, failure and ordering rules. All results are
// discarded if any job fails.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	if _, err := ForEachStats(workers, n, func(i int) (err error) {
		results[i], err = fn(i)
		return err
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// ForEachStats runs fn(i) for every i in [0, n) on a work-stealing pool of
// the given width and reports the pool's execution statistics. workers <=
// 0 selects runtime.GOMAXPROCS(0). fn must be safe for concurrent use and
// should depend only on i.
//
// If any job fails, workers stop claiming new jobs (in-flight jobs
// finish) and ForEachStats returns the lowest-indexed error among the
// jobs that ran. Whether it fails never depends on the worker count — job
// validity is a function of the inputs alone — but when several jobs are
// invalid, which one is reported may.
func ForEachStats(workers, n int, fn func(i int) error) (Stats, error) {
	if n <= 0 {
		return Stats{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	queues := newDeques(workers, n)
	errs := make([]error, n)
	work := func(self int) {
		for {
			i, ok := queues.next(self)
			if !ok {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				queues.failed.Store(true)
			}
		}
	}
	// Worker 0 runs on the calling goroutine, so a serial pool starts no
	// goroutines at all.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			work(self)
		}(w)
	}
	work(0)
	wg.Wait()
	stats := queues.stats(workers)
	for i, err := range errs {
		if err != nil {
			return stats, fmt.Errorf("runner: job %d: %w", i, err)
		}
	}
	return stats, nil
}

// deques is the work-stealing state: each worker owns a contiguous index
// range and pops from its bottom; an idle worker steals from the top of
// the fullest victim. Stealing from the opposite end keeps owner and
// thief contention to a single mutex acquisition per index.
type deques struct {
	shards []shard
	// remaining counts unclaimed indices across all shards, letting idle
	// workers stop scanning for victims as soon as the pool drains.
	remaining atomic.Int64
	// failed halts further claims once any job errors, so an invalid
	// grid cell doesn't cost the rest of the grid's simulation time.
	failed atomic.Bool

	// Backpressure accounting (see Stats).
	localClaims atomic.Int64
	steals      atomic.Int64
	failedScans atomic.Int64
	depthSum    atomic.Int64
}

// stats snapshots the pool's execution counters after the workers drain.
func (d *deques) stats(workers int) Stats {
	s := Stats{
		Workers:          workers,
		LocalClaims:      d.localClaims.Load(),
		Steals:           d.steals.Load(),
		FailedStealScans: d.failedScans.Load(),
	}
	s.Jobs = s.LocalClaims + s.Steals
	if s.Jobs > 0 {
		s.MeanQueueDepth = float64(d.depthSum.Load()) / float64(s.Jobs)
	}
	return s
}

type shard struct {
	mu sync.Mutex
	// lo..hi is the unclaimed slice of this shard's index range.
	lo, hi int
	_      [40]byte // pad to a cache line so shards don't false-share
}

// newDeques splits [0, n) into one contiguous range per worker. Contiguous
// ranges (rather than striding) keep each worker's jobs adjacent, which
// preserves locality when neighbouring scenarios share warm state.
func newDeques(workers, n int) *deques {
	d := &deques{shards: make([]shard, workers)}
	for w := 0; w < workers; w++ {
		d.shards[w].lo = w * n / workers
		d.shards[w].hi = (w + 1) * n / workers
	}
	d.remaining.Store(int64(n))
	return d
}

// next claims an index for worker self: from its own shard's bottom if
// any remain, otherwise stolen from the top of the fullest other shard.
// Claims stop once any job has failed.
func (d *deques) next(self int) (int, bool) {
	if d.failed.Load() {
		return 0, false
	}
	if i, ok := d.shards[self].pop(false); ok {
		d.depthSum.Add(d.remaining.Add(-1))
		d.localClaims.Add(1)
		return i, true
	}
	for d.remaining.Load() > 0 {
		victim, width := -1, 0
		for w := range d.shards {
			if w == self {
				continue
			}
			if n := d.shards[w].width(); n > width {
				victim, width = w, n
			}
		}
		if victim < 0 {
			d.failedScans.Add(1)
			return 0, false
		}
		if i, ok := d.shards[victim].pop(true); ok {
			d.depthSum.Add(d.remaining.Add(-1))
			d.steals.Add(1)
			return i, true
		}
		// Lost the race for that victim; rescan while work remains.
		d.failedScans.Add(1)
	}
	return 0, false
}

// pop claims the shard's bottom index (the owner's end) or, for a thief,
// its top index.
func (s *shard) pop(top bool) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lo >= s.hi {
		return 0, false
	}
	if top {
		s.hi--
		return s.hi, true
	}
	s.lo++
	return s.lo - 1, true
}

func (s *shard) width() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hi - s.lo
}
