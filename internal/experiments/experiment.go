package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/tcppuzzles/tcppuzzles/defense"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sim/runner"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// An Experiment is one figure, table or ablation of the evaluation,
// declared as data: the scenario grid it sweeps at a scale, the
// measurement taken in each grid cell, and the table rendered from the
// completed cells. Every experiment runs through the one executor, Run.
type Experiment struct {
	// ID names the experiment on the command line and in sink records.
	ID string
	// Grid declares the cells at a deployment scale. Flood grids apply
	// the scale to their base scenario, and grids shrink their axes at
	// reduced scales; the model-only profiles ignore it.
	Grid func(Scale) sweep.Grid
	// CacheNS overrides the cache namespace when two experiments measure
	// identical cells identically (figs. 10 and 11); empty means ID.
	CacheNS string
	// Flood measures a flood experiment's cell: the executor simulates
	// the cell's scenario with RunFlood and hands Flood the completed
	// run, its Cfg set to the cell's canonical scenario. Cells whose
	// simulations read the same inputs share one run (see simKey).
	// Exactly one of Flood and Cell is set.
	Flood func(*FloodRun) ([]sweep.Metric, []sweep.Series)
	// Cell measures one expanded cell of a model experiment, whose cells
	// may read their index; every cell is its own job.
	Cell Cell
	// Render builds the table from the completed cells. It reads only
	// the Results, so a fully cached run renders identically.
	Render func([]sweep.Result) sweep.Table
}

// A Cell measures cell i of an expanded grid. logf, non-nil only when the
// Exec has a Debug writer, narrates the cell's execution there.
type Cell func(i int, sc Scenario, logf func(format string, args ...any)) ([]sweep.Metric, []sweep.Series, error)

// Experiments is the evaluation in display order: figures, tables, then
// ablations.
var Experiments = []Experiment{
	{ID: "fig3a", Grid: fig3aGrid, Cell: fig3aCell, Render: fig3aTable},
	{ID: "fig3b", Grid: fig3bGrid, Cell: fig3bCell, Render: fig3bTable},
	{ID: "fig6", Grid: fig6Grid, Cell: fig6Cell, Render: fig6Table},
	{ID: "fig7", Grid: fig7Grid, Flood: floodComparisonMetrics, Render: floodComparisonTable("Fig 7 — SYN flood: throughput (Mbps)")},
	{ID: "fig8", Grid: fig8Grid, Flood: floodComparisonMetrics, Render: floodComparisonTable("Fig 8 — connection flood: throughput (Mbps)")},
	{ID: "fig9", Grid: fig9Grid, Flood: fig9Metrics, Render: fig9Table},
	{ID: "fig10", Grid: fig10Grid, CacheNS: "fig10-11", Flood: queueAndRateMetrics, Render: fig10Table},
	{ID: "fig11", Grid: fig10Grid, CacheNS: "fig10-11", Flood: queueAndRateMetrics, Render: fig11Table},
	{ID: "fig12", Grid: fig12Grid, Flood: fig12Metrics, Render: fig12Table},
	{ID: "fig13", Grid: fig13Grid, Flood: botnetSweepMetrics, Render: botnetSweepTable("Fig 13 — rate sweep (5 bots)")},
	{ID: "fig14", Grid: fig14Grid, Flood: botnetSweepMetrics, Render: botnetSweepTable("Fig 14 — botnet size sweep (5000 pps total)")},
	{ID: "fig15", Grid: fig15Grid, Flood: fig15Metrics, Render: fig15Table},
	{ID: "tab1", Grid: table1Grid, Cell: table1Cell, Render: table1Table},
	{ID: "nash", Grid: nashGrid, Cell: nashCell, Render: nashTable},
	{ID: "ablation-opportunistic", Grid: opportunisticGrid, Flood: opportunisticMetrics, Render: opportunisticTable},
	{ID: "ablation-solutionflood", Grid: solutionFloodGrid, Flood: solutionFloodMetrics, Render: solutionFloodTable},
	{ID: "ablation-membound", Grid: memboundGrid, Cell: memboundCell, Render: memboundTable},
	{ID: "ablation-adaptive", Grid: adaptiveGrid, Flood: adaptiveMetrics, Render: adaptiveTable},
	{ID: "armsrace", Grid: armsRaceGrid, Flood: armsRaceMetrics, Render: armsRaceTable},
}

// ByID returns the registered experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// reduced reports whether a scale is smaller than the paper's 600 s
// deployment; reduced runs sweep fewer points per axis.
func reduced(s Scale) bool { return s.Duration < 600*time.Second }

// Run expands the experiment's grid at scale and executes the cells with
// exec's options. It is the one executor: every figure, table, user sweep
// and public sim.Run/RunAll call reaches the runner through it.
func (e Experiment) Run(scale Scale, exec Exec) ([]sweep.Result, error) {
	return e.run(e.Grid(scale).Expand(nil), exec)
}

// run fans cells out across the work-stealing runner (exec.Parallelism
// wide) and returns one sweep.Result per cell in order, duplicates
// included. A failure names the experiment and the cell.
//
// A flood experiment's cells that read the same simulation inputs
// (simKey) form one runner job, which simulates once, at the group's
// first cache miss, and measures every member that missed from that run.
// No job waits on another, and every Result, cache entry and sink byte
// is what a run of that cell alone gives.
//
// When exec.Cache is set, cells whose canonical scenario hash is already
// stored skip simulation and measurement entirely (the cache's hit
// counter is the proof); when exec.Sinks is set, each Result streams out
// in cell order as runs land — the sweep.Stream reorder buffer keeps sink
// output byte-identical at every worker count.
func (e Experiment) run(cells []Scenario, exec Exec) ([]sweep.Result, error) {
	if (e.Flood == nil) == (e.Cell == nil) {
		return nil, fmt.Errorf("experiments: %s: set exactly one of Flood and Cell", e.ID)
	}
	cacheNS := e.CacheNS
	if cacheNS == "" {
		cacheNS = e.ID
	}
	canon := make([]Scenario, len(cells))
	for i := range cells {
		canon[i] = cells[i].Defaults()
	}
	groups := e.groups(canon)
	results := make([]sweep.Result, len(cells))
	stream := sweep.NewStream(exec.Sinks...)
	// Process-wide peak heap across the grid's computed cells, sampled as
	// each cell lands. Advisory (GC timing dependent), so it lives in
	// Exec alongside the equally scheduling-dependent pool stats.
	var (
		mu                         sync.Mutex
		peakHeapAlloc, peakHeapSys uint64
	)
	stats, err := runner.ForEachStats(exec.Parallelism, len(groups), func(g int) error {
		// The group's one simulation, run at its first miss and dropped
		// when the job ends; from is the cell it was run for.
		var (
			run  *FloodRun
			from int
		)
		measure := func(i int, logf func(string, ...any)) ([]sweep.Metric, []sweep.Series, error) {
			if e.Cell != nil {
				return e.Cell(i, canon[i], logf)
			}
			if run == nil {
				var err error
				if run, err = RunFlood(canon[i]); err != nil {
					return nil, nil, err
				}
				from = i
				if logf != nil {
					// Events fired and what the two event heaps held: timers
					// and packet legs fired, deliver legs and train arrivals
					// fired in place, deliver legs queued behind a downlink
					// FIFO's head, cancelled timers, peak lengths.
					q := run.Eng.Stats()
					logf("events=%d timers=%d packet-legs=%d in-place=%d arrivals-in-place=%d delivers-queued=%d cancelled=%d peak-timers=%d peak-packets=%d",
						run.Eng.Fired(), q.TimersFired, q.PacketLegsFired, q.InPlace, q.ArrivalsInPlace, q.DeliversQueued, q.Discarded, q.PeakTimers, q.PeakPackets)
				}
			} else if logf != nil {
				logf("measured from the run of cell %d %q", from, canon[from].Label)
			}
			run.Cfg = canon[i]
			metrics, series := e.Flood(run)
			return metrics, series, nil
		}
		for _, i := range groups[g] {
			var logf func(format string, args ...any)
			if exec.Debug != nil {
				logf = func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					fmt.Fprintf(exec.Debug, "[%s] cell %q: "+format+"\n",
						append([]any{e.ID, canon[i].Label}, args...)...)
				}
			}
			var (
				metrics []sweep.Metric
				series  []sweep.Series
				cached  bool
			)
			if exec.Cache != nil {
				metrics, series, cached = exec.Cache.Get(cacheNS, canon[i])
			}
			if !cached {
				var err error
				metrics, series, err = measure(i, logf)
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
				mu.Lock()
				peakHeapAlloc = max(peakHeapAlloc, ms.HeapAlloc)
				peakHeapSys = max(peakHeapSys, ms.HeapSys)
				mu.Unlock()
				if logf != nil {
					logf("heap-alloc=%dMiB heap-sys=%dMiB", ms.HeapAlloc>>20, ms.HeapSys>>20)
				}
				if exec.Cache != nil {
					if err := exec.Cache.Put(cacheNS, canon[i], metrics, series); err != nil {
						return err
					}
				}
			}
			results[i] = sweep.Result{
				Experiment: e.ID, Scenario: canon[i],
				Metrics: metrics, Series: series,
			}
			if err := stream.Emit(i, results[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		// The runner prefixes the lowest failing job's index; the cell
		// label already names that job.
		if cellErr := errors.Unwrap(err); cellErr != nil {
			err = cellErr
		}
		return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	// Attach the pool's backpressure stats (shared across the grid) and
	// narrate them when debugging. Exec is json-skipped and uncached, so
	// sink bytes and determinism comparisons never see it. Jobs counts
	// groups, not cells.
	pool := &sweep.ExecStats{
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
		results[i].Exec = pool
	}
	if exec.Debug != nil {
		fmt.Fprintf(exec.Debug,
			"[%s] runner: workers=%d jobs=%d local=%d steals=%d failed-scans=%d mean-queue-depth=%.1f peak-heap-alloc=%dMiB peak-heap-sys=%dMiB\n",
			e.ID, pool.Workers, pool.Jobs, pool.LocalClaims, pool.Steals,
			pool.FailedStealScans, pool.MeanQueueDepth,
			pool.PeakHeapAlloc>>20, pool.PeakHeapSys>>20)
	}
	return results, nil
}

// groups partitions the canonical cells into runner jobs, each a list of
// cell indices, in grid order. A flood experiment's cells with one simKey
// share a job; a model experiment's cells, which may read their index,
// run one job each. The map only finds a key's group: iteration follows
// the cells.
func (e Experiment) groups(canon []Scenario) [][]int {
	out := make([][]int, 0, len(canon))
	if e.Flood == nil {
		for i := range canon {
			out = append(out, []int{i})
		}
		return out
	}
	group := make(map[Scenario]int, len(canon))
	for i, sc := range canon {
		k := simKey(sc)
		if g, ok := group[k]; ok {
			out[g] = append(out[g], i)
			continue
		}
		group[k] = len(out)
		out = append(out, []int{i})
	}
	return out
}

// simKey is what RunFlood can read of a canonical scenario: all of it but
// the Label and the unread Shards, and but Params under a defense
// registered without defense.Info.Puzzles, whose server may not read them.
// Params that do not validate stay in the key, so they still fail every
// cell that carries them, in the server's issuer.
func simKey(sc Scenario) Scenario {
	sc.Label, sc.Shards = "", 0
	if info, ok := defense.Lookup(sc.Defense); ok && !info.Puzzles && sc.Params.Validate() == nil {
		sc.Params = puzzle.Params{}
	}
	return sc
}

// sweepCells measures user-declared cells with the standard flood metric
// set, cached under the "sweep" namespace.
var sweepCells = Experiment{ID: "sweep", Flood: StandardMetrics}

// RunSweep executes an arbitrary user-declared scenario grid, as declared,
// with the standard flood metric set. It is the engine behind the public
// sim.RunSweep.
func RunSweep(exec Exec, grid sweep.Grid) ([]sweep.Result, error) {
	return RunCells(exec, grid.Expand(nil))
}

// RunCells is RunSweep over an explicit cell list: one Result per input,
// in order; cells that simulate alike may share one simulation. It is the
// engine behind sim.Run and sim.RunAll.
func RunCells(exec Exec, cells []Scenario) ([]sweep.Result, error) {
	return sweepCells.run(cells, exec)
}

// StandardMetrics is the default flood measurement set used by RunSweep:
// phase means of client goodput, the effective attack rate, and the
// headline per-bucket series.
func StandardMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	cli := run.ClientThroughputMbps()
	metrics := append(phaseMetrics(run, "client_mbps", cli),
		sweep.Metric{Name: "attacker_established_cps", Value: run.AttackWindowMean(run.AttackerEstablishedRate())})
	series := []sweep.Series{
		{Name: "client_mbps", Values: cli},
		{Name: "server_mbps", Values: run.ServerThroughputMbps()},
		{Name: "server_cpu_pct", Values: run.ServerCPU()},
		{Name: "attacker_established_cps", Values: run.AttackerEstablishedRate()},
	}
	return metrics, series
}
