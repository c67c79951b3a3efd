package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/tcppuzzles/tcppuzzles/sim/runner"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// runCells is the shared executor behind every figure/table driver: it
// takes an experiment's expanded scenario cells and a per-cell compute
// function, fans the cells out across the work-stealing runner
// (scale.Parallelism wide), and turns each completed cell into a
// sweep.Result.
//
// Execution options come from the scale: when scale.Cache is set, cells
// whose canonical scenario hash is already stored skip compute entirely
// (the cache's hit counter is the proof); when scale.Sinks is set, each
// Result streams out in grid order as runs land — the sweep.Stream
// reorder buffer keeps sink output byte-identical at every worker count.
//
// cacheNS overrides the cache namespace when two experiments run
// identical cells with identical metrics (figs. 10 and 11); empty means
// "use the experiment name".
func runCells(scale Scale, experiment, cacheNS string, cells []Scenario,
	compute func(i int, sc Scenario) ([]sweep.Metric, []sweep.Series, error),
) ([]sweep.Result, error) {
	if cacheNS == "" {
		cacheNS = experiment
	}
	canon := make([]Scenario, len(cells))
	for i := range cells {
		canon[i] = cells[i].Defaults()
		// Shards is execution-only (byte-identical results either way)
		// and excluded from the cache hash, so applying it after
		// canonicalisation is safe.
		if scale.Shards != 0 {
			canon[i].Shards = scale.Shards
		}
	}
	results := make([]sweep.Result, len(cells))
	stream := sweep.NewStream(scale.Sinks...)
	// Process-wide peak heap across the grid's computed cells, sampled as
	// each cell lands. Advisory (GC timing dependent), so it lives in
	// Exec alongside the equally scheduling-dependent pool stats.
	var (
		peakMu                     sync.Mutex
		peakHeapAlloc, peakHeapSys uint64
	)
	stats, err := runner.ForEachStats(scale.Parallelism, len(cells), func(i int) error {
		var (
			metrics []sweep.Metric
			series  []sweep.Series
			cached  bool
		)
		if scale.Cache != nil {
			metrics, series, cached = scale.Cache.Get(cacheNS, canon[i])
		}
		if !cached {
			var err error
			metrics, series, err = compute(i, canon[i])
			if err != nil {
				if canon[i].Label != "" {
					// Name the failing grid cell; a bare job index doesn't
					// identify which (k, m)/defense/rate was at fault.
					return fmt.Errorf("scenario %q: %w", canon[i].Label, err)
				}
				return err
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peakMu.Lock()
			if ms.HeapAlloc > peakHeapAlloc {
				peakHeapAlloc = ms.HeapAlloc
			}
			if ms.HeapSys > peakHeapSys {
				peakHeapSys = ms.HeapSys
			}
			peakMu.Unlock()
			if scale.Debug != nil {
				fmt.Fprintf(scale.Debug, "[%s] cell %q: heap-alloc=%dMiB heap-sys=%dMiB\n",
					experiment, canon[i].Label, ms.HeapAlloc>>20, ms.HeapSys>>20)
			}
			if scale.Cache != nil {
				if err := scale.Cache.Put(cacheNS, canon[i], metrics, series); err != nil {
					return err
				}
			}
		}
		results[i] = sweep.Result{
			Experiment: experiment, Scenario: canon[i],
			Metrics: metrics, Series: series,
		}
		return stream.Emit(i, results[i])
	})
	if err != nil {
		return nil, err
	}
	// Attach the pool's backpressure stats (shared across the grid) and
	// narrate them when debugging. Exec is json-skipped and uncached, so
	// sink bytes and determinism comparisons never see it.
	exec := &sweep.ExecStats{
		Workers:          stats.Workers,
		Jobs:             stats.Jobs,
		LocalClaims:      stats.LocalClaims,
		Steals:           stats.Steals,
		FailedStealScans: stats.FailedStealScans,
		MeanQueueDepth:   stats.MeanQueueDepth,
		PeakHeapAlloc:    peakHeapAlloc,
		PeakHeapSys:      peakHeapSys,
	}
	for i := range results {
		results[i].Exec = exec
	}
	if scale.Debug != nil {
		fmt.Fprintf(scale.Debug,
			"[%s] runner: workers=%d jobs=%d local=%d steals=%d failed-scans=%d mean-queue-depth=%.1f peak-heap-alloc=%dMiB peak-heap-sys=%dMiB\n",
			experiment, exec.Workers, exec.Jobs, exec.LocalClaims, exec.Steals,
			exec.FailedStealScans, exec.MeanQueueDepth,
			exec.PeakHeapAlloc>>20, exec.PeakHeapSys>>20)
	}
	return results, nil
}

// runFloodCells executes flood-scenario cells through runCells, keeping
// the live FloodRun of every cell that actually simulated (nil for cache
// hits) so callers can expose raw measurement state to tests and
// benchmarks. Driver tables must render from the returned Results, never
// from the runs, or cached regenerations would render differently.
func runFloodCells(scale Scale, experiment, cacheNS string, cells []Scenario,
	extract func(*FloodRun) ([]sweep.Metric, []sweep.Series),
) ([]sweep.Result, []*FloodRun, error) {
	runs := make([]*FloodRun, len(cells))
	var debugMu sync.Mutex
	results, err := runCells(scale, experiment, cacheNS, cells, func(i int, sc Scenario) ([]sweep.Metric, []sweep.Series, error) {
		run, err := RunFlood(sc)
		if err != nil {
			return nil, nil, err
		}
		if scale.Debug != nil {
			// Per-cell shard load balance: event counts show placement
			// skew, barrier waits show which shards idled at windows, and
			// the min/mean/max applied window widths make the adaptive
			// per-pair lookahead observable (mean above min = widening).
			// The queue counters say what those events were and what the
			// two heaps held: timers fired, packet legs fired, how many
			// deliver legs and how many train arrivals fired in place,
			// cancelled timers discarded, peak lengths.
			st, q := run.Net.ShardStats(), run.Net.EngineStats()
			debugMu.Lock()
			fmt.Fprintf(scale.Debug, "[%s] cell %q: shards=%d events=%v windows=%d barrier-wait=%v lookahead=%v/%v/%v timers=%d packet-legs=%d in-place=%d arrivals-in-place=%d cancelled=%d peak-timers=%d peak-packets=%d\n",
				experiment, sc.Label, run.Net.Shards(), st.Events, st.Windows, st.BarrierWait,
				st.LookaheadMin, st.LookaheadMean, st.LookaheadMax,
				q.TimersFired, q.PacketLegsFired, q.InPlace, q.ArrivalsInPlace, q.Discarded, q.PeakTimers, q.PeakPackets)
			debugMu.Unlock()
		}
		runs[i] = run
		metrics, series := extract(run)
		return metrics, series, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, runs, nil
}

// RunSweep executes an arbitrary user-declared scenario grid with the
// standard flood metric set, streaming each cell's Result to scale.Sinks
// and caching cells under the "sweep" experiment namespace. It is the
// engine behind the public sim.RunSweep.
func RunSweep(scale Scale, grid sweep.Grid) ([]sweep.Result, error) {
	results, _, err := runFloodCells(scale, "sweep", "", grid.Expand(nil), StandardMetrics)
	return results, err
}

// StandardMetrics is the default flood measurement set used by RunSweep:
// phase means of client goodput, the effective attack rate, and the
// headline per-bucket series.
func StandardMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	cli := run.ClientThroughputMbps()
	metrics := []sweep.Metric{
		{Name: "client_mbps_before", Value: phaseMean(run, cli, phaseBefore)},
		{Name: "client_mbps_during", Value: phaseMean(run, cli, phaseDuring)},
		{Name: "client_mbps_after", Value: phaseMean(run, cli, phaseAfter)},
		{Name: "attacker_established_cps", Value: run.AttackWindowMean(run.AttackerEstablishedRate())},
	}
	series := []sweep.Series{
		{Name: "client_mbps", Values: cli},
		{Name: "server_mbps", Values: run.ServerThroughputMbps()},
		{Name: "server_cpu_pct", Values: run.ServerCPU()},
		{Name: "attacker_established_cps", Values: run.AttackerEstablishedRate()},
	}
	return metrics, series
}
