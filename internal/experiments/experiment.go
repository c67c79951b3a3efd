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
// completed cells. Every experiment runs through the one executor,
// RunPlan.
type Experiment struct {
	// ID names the experiment on the command line, in sink records and
	// in the result cache.
	ID string
	// Grid declares the cells at a deployment scale. Flood grids apply
	// the scale to their base scenario, and grids shrink their axes at
	// reduced scales; the model-only profiles ignore it.
	Grid func(Scale) sweep.Grid
	// Flood measures a flood experiment's cell: the executor simulates
	// the cell's scenario with RunFlood and hands Flood the completed
	// run, its Cfg set to the cell's canonical scenario. Cells whose
	// simulations read the same inputs share one run, across the
	// experiments of a plan too (see simKey). Exactly one of Flood and
	// Cell is set.
	Flood func(*FloodRun) ([]sweep.Metric, []sweep.Series)
	// Cell measures one expanded cell of a model experiment, whose cells
	// may read their index; every cell is its own job.
	Cell Cell
	// Render builds the table from the completed cells. It reads only
	// the Results, so a fully cached run renders identically.
	Render func([]sweep.Result) sweep.Table
}

// A Cell measures cell i of an expanded grid.
type Cell func(i int, sc Scenario) ([]sweep.Metric, []sweep.Series, error)

// Experiments is the evaluation in display order: figures, tables, then
// ablations.
var Experiments = []Experiment{
	{ID: "fig3a", Grid: fig3aGrid, Cell: fig3aCell, Render: fig3aTable},
	{ID: "fig3b", Grid: fig3bGrid, Cell: fig3bCell, Render: fig3bTable},
	{ID: "fig6", Grid: fig6Grid, Cell: fig6Cell, Render: fig6Table},
	{ID: "fig7", Grid: fig7Grid, Flood: floodComparisonMetrics, Render: floodComparisonTable("Fig 7 — SYN flood: throughput (Mbps)")},
	{ID: "fig8", Grid: fig8Grid, Flood: floodComparisonMetrics, Render: floodComparisonTable("Fig 8 — connection flood: throughput (Mbps)")},
	{ID: "fig9", Grid: fig9Grid, Flood: fig9Metrics, Render: fig9Table},
	{ID: "fig10", Grid: fig10Grid, Flood: queueAndRateMetrics, Render: fig10Table},
	{ID: "fig11", Grid: fig10Grid, Flood: queueAndRateMetrics, Render: fig11Table},
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

// Run expands the experiment's grid at scale and executes it as a plan of
// one (see RunPlan).
func (e Experiment) Run(scale Scale, exec Exec) ([]sweep.Result, error) {
	results, err := RunPlan([]Experiment{e}, scale, exec)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunPlan expands every experiment's grid at scale and executes all their
// cells as one plan. It is the one executor: every figure, table, user
// sweep and public sim.Run/RunAll/RunExperiment call reaches the runner
// through it. It returns one Result per cell, grouped by experiment in
// the order given, duplicates included.
func RunPlan(exps []Experiment, scale Scale, exec Exec) ([][]sweep.Result, error) {
	grids := make([][]Scenario, len(exps))
	for k, e := range exps {
		grids[k] = e.Grid(scale).Expand(nil)
	}
	return runPlan(exps, grids, exec)
}

// planCell is one (experiment, cell) pair of a plan.
type planCell struct {
	exp int      // the experiment's index in the plan
	i   int      // the cell's index in its experiment's grid
	sc  Scenario // the cell's canonical scenario
}

// runPlan executes grids[k], the cells of exps[k], on one work-stealing
// runner pool (exec.Parallelism wide), one sink stream and one ExecStats.
// A cell's plan index is its experiment's place in exps, then its place
// in the grid: sinks see every experiment's cells in turn, in grid order.
// A failure names the cell's experiment and the cell.
//
// Flood cells that read the same simulation inputs (simKey), within an
// experiment or across experiments, form one runner job, which simulates
// once, at the group's first cache miss, and measures every member that
// missed from that run with the member's own experiment's Flood. No job
// waits on another, and every Result, cache entry and sink byte is what a
// run of that cell alone gives.
//
// When exec.Cache is set, cells whose canonical scenario hash is already
// stored under their experiment's ID skip simulation and measurement
// entirely (the cache's hit counter is the proof); when exec.Sinks is
// set, each Result streams out in plan order as runs land — the
// sweep.Stream reorder buffer keeps sink output byte-identical at every
// worker count.
func runPlan(exps []Experiment, grids [][]Scenario, exec Exec) ([][]sweep.Result, error) {
	n := 0
	for k, e := range exps {
		if (e.Flood == nil) == (e.Cell == nil) {
			return nil, fmt.Errorf("experiments: %s: set exactly one of Flood and Cell", e.ID)
		}
		n += len(grids[k])
	}
	cells := make([]planCell, 0, n)
	for k, grid := range grids {
		for i := range grid {
			cells = append(cells, planCell{exp: k, i: i, sc: grid[i].Defaults()})
		}
	}
	groups := planGroups(exps, cells)
	results := make([]sweep.Result, n)
	stream := sweep.NewStream(exec.Sinks...)
	// Process-wide peak heap across the plan's computed cells, sampled as
	// each cell lands. Advisory (GC timing dependent), so it lives in
	// Exec alongside the equally scheduling-dependent pool stats.
	var (
		mu                         sync.Mutex
		peakHeapAlloc, peakHeapSys uint64
	)
	debugf := func(c int, format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(exec.Debug, "[%s] cell %q: "+format+"\n",
			append([]any{exps[cells[c].exp].ID, cells[c].sc.Label}, args...)...)
	}
	stats, err := runner.ForEachStats(exec.Parallelism, len(groups), func(g int) error {
		// The group's one simulation, run at its first miss and dropped
		// when the job ends; from is the plan cell it was run for.
		var (
			run  *FloodRun
			from int
		)
		measure := func(c int) ([]sweep.Metric, []sweep.Series, error) {
			pc, e := &cells[c], &exps[cells[c].exp]
			if e.Cell != nil {
				return e.Cell(pc.i, pc.sc)
			}
			if run == nil {
				var err error
				if run, err = RunFlood(pc.sc); err != nil {
					return nil, nil, err
				}
				from = c
				if exec.Debug != nil {
					// Events fired and what the two event heaps held: timers
					// and packet legs fired, deliver legs and train arrivals
					// fired in place, deliver legs queued behind a downlink
					// FIFO's head, train legs deferred instead of fired,
					// cancelled timers, peak lengths, sends ahead of the clock.
					q := run.Eng.Stats()
					debugf(c, "events=%d timers=%d packet-legs=%d in-place=%d arrivals-in-place=%d delivers-queued=%d deferred=%d cancelled=%d peak-timers=%d peak-packets=%d sent-ahead=%d",
						run.Eng.Fired(), q.TimersFired, q.PacketLegsFired, q.InPlace, q.ArrivalsInPlace, q.DeliversQueued, q.Deferred, q.Discarded, q.PeakTimers, q.PeakPackets, q.SentAhead)
				}
			} else if exec.Debug != nil {
				src := &cells[from]
				debugf(c, "measured from the run of %s cell %d %q", exps[src.exp].ID, src.i, src.sc.Label)
			}
			run.Cfg = pc.sc
			metrics, series := e.Flood(run)
			return metrics, series, nil
		}
		for _, c := range groups[g] {
			id, sc := exps[cells[c].exp].ID, cells[c].sc
			canon := sweep.Canon(sc) // the cache key's and the NDJSON record's bytes
			var (
				metrics []sweep.Metric
				series  []sweep.Series
				cached  bool
			)
			if exec.Cache != nil {
				metrics, series, cached = exec.Cache.GetCanonical(id, canon)
			}
			if !cached {
				var err error
				metrics, series, err = measure(c)
				if err != nil {
					if sc.Label != "" {
						// Name the failing grid cell; a bare job index doesn't
						// identify which (k, m)/defense/rate was at fault.
						err = fmt.Errorf("scenario %q: %w", sc.Label, err)
					}
					return fmt.Errorf("experiments: %s: %w", id, err)
				}
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mu.Lock()
				peakHeapAlloc = max(peakHeapAlloc, ms.HeapAlloc)
				peakHeapSys = max(peakHeapSys, ms.HeapSys)
				mu.Unlock()
				if exec.Debug != nil {
					debugf(c, "heap-alloc=%dMiB heap-sys=%dMiB", ms.HeapAlloc>>20, ms.HeapSys>>20)
				}
				if exec.Cache != nil {
					if err := exec.Cache.PutCanonical(id, canon, metrics, series); err != nil {
						return fmt.Errorf("experiments: %s: %w", id, err)
					}
				}
			}
			results[c] = sweep.Result{
				Experiment: id, Scenario: sc,
				Metrics: metrics, Series: series,
			}
			if err := stream.Emit(c, results[c], canon); err != nil {
				return fmt.Errorf("experiments: %s: %w", id, err)
			}
		}
		return nil
	})
	if err != nil {
		// The runner prefixes the lowest failing job's index; the
		// experiment and cell label already name that job.
		if cellErr := errors.Unwrap(err); cellErr != nil {
			err = cellErr
		}
		return nil, err
	}
	// Attach the pool's stats (shared across the plan) and narrate them
	// when debugging. Exec is json-skipped and uncached, so sink bytes and
	// determinism comparisons never see it. Jobs counts groups, not cells.
	pool := &sweep.ExecStats{
		Workers:       stats.Workers,
		Jobs:          stats.Jobs,
		PeakHeapAlloc: peakHeapAlloc,
		PeakHeapSys:   peakHeapSys,
	}
	for i := range results {
		results[i].Exec = pool
	}
	if exec.Debug != nil {
		name := fmt.Sprintf("%d experiments", len(exps))
		if len(exps) == 1 {
			name = exps[0].ID
		}
		fmt.Fprintf(exec.Debug,
			"[%s] runner: workers=%d jobs=%d peak-heap-alloc=%dMiB peak-heap-sys=%dMiB\n",
			name, pool.Workers, pool.Jobs, pool.PeakHeapAlloc>>20, pool.PeakHeapSys>>20)
	}
	out := make([][]sweep.Result, len(exps))
	for k, grid := range grids {
		out[k], results = results[:len(grid):len(grid)], results[len(grid):]
	}
	return out, nil
}

// planGroups partitions a plan's cells into runner jobs, each a list of
// plan indices, in plan order. Flood cells with one simKey share a job,
// whichever experiments they belong to; a model experiment's cells, which
// may read their index, run one job each. The map only finds a key's
// group: iteration follows the cells.
func planGroups(exps []Experiment, cells []planCell) [][]int {
	out := make([][]int, 0, len(cells))
	group := make(map[Scenario]int, len(cells))
	for c, pc := range cells {
		if exps[pc.exp].Flood == nil {
			out = append(out, []int{c})
			continue
		}
		k := simKey(pc.sc)
		if g, ok := group[k]; ok {
			out[g] = append(out[g], c)
			continue
		}
		group[k] = len(out)
		out = append(out, []int{c})
	}
	return out
}

// simKey is what RunFlood can read of a canonical scenario: its SimInputs
// but Params under a defense without Info.Puzzles, whose server may not
// read them. Params that do not validate stay in the key, so they still
// fail every cell that carries them, in the server's issuer.
func simKey(sc Scenario) Scenario {
	sc = sc.SimInputs()
	if info, _, err := defense.Lookup(sc.Defense); err == nil && !info.Puzzles && sc.Params.Validate() == nil {
		sc.Params = puzzle.Params{}
	}
	return sc
}

// sweepCells measures user-declared cells with the standard flood metric
// set, cached under the ID "sweep".
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
	results, err := runPlan([]Experiment{sweepCells}, [][]Scenario{cells}, exec)
	if err != nil {
		return nil, err
	}
	return results[0], nil
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
