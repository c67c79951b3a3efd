// Package runner is the experiment execution subsystem: a goroutine pool
// that fans independent jobs — the expanded cells of a sweep.Grid — out
// across the machine's cores, each worker claiming the next index from one
// shared counter. Results come back in submission order, and a job's
// outcome depends only on its own inputs (each simulated scenario carries
// its own seed), so output is bit-for-bit identical at any worker count.
// sweep.Stream keeps that guarantee on the sink path by re-ordering
// completions.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Stats describes how one Map/ForEachStats call executed.
type Stats struct {
	// Workers is the effective pool width (clamped to the job count).
	Workers int
	// Jobs is the number of jobs claimed (equals n unless a failure
	// stopped the pool early).
	Jobs int64
}

// Map runs fn(i) for every i in [0, n) under ForEachStats' width, failure
// and ordering rules and returns the results ordered by index. All results
// are discarded if any job fails.
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

// ForEachStats runs fn(i) for every i in [0, n) on a pool of the given
// width and reports how it executed. workers <= 0 selects
// runtime.GOMAXPROCS(0). fn must be safe for concurrent use and should
// depend only on i. Indices are claimed in increasing order, so when job
// i starts, every lower index has been claimed.
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
	// next is the lowest unclaimed index; failed halts further claims once
	// any job errors, so an invalid grid cell doesn't cost the rest of the
	// grid's simulation time.
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, n)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	// Worker 0 runs on the calling goroutine, so a serial pool starts no
	// goroutines at all.
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	stats := Stats{Workers: workers, Jobs: min(next.Load(), int64(n))}
	for i, err := range errs {
		if err != nil {
			return stats, fmt.Errorf("runner: job %d: %w", i, err)
		}
	}
	return stats, nil
}
