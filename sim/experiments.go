package sim

import (
	"fmt"
	"io"
	"strings"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// Table is a rendered experiment result.
type Table = sweep.Table

// Scale selects the experiment size.
type Scale string

// Experiment scales.
const (
	// ScalePaper is the full §6 deployment (600 s, 15 clients, 10 bots at
	// 500 pps). Minutes of wall time per experiment.
	ScalePaper Scale = "paper"
	// ScaleQuick is a reduced deployment with the same structure (120 s).
	ScaleQuick Scale = "quick"
	// ScaleTiny is the smallest deployment that preserves the attack
	// structure (60 s); it backs fast demos and the CI cache round-trip.
	ScaleTiny Scale = "tiny"
)

// deployments sizes each Scale.
var deployments = map[Scale]func() experiments.Scale{
	"": experiments.QuickScale, ScaleQuick: experiments.QuickScale,
	ScalePaper: experiments.PaperScale, ScaleTiny: experiments.TinyScale,
}

// RunOption tunes how an experiment executes (never what it computes).
type RunOption func(*sweep.Exec)

// execOf applies opts to the zero execution options.
func execOf(opts []RunOption) sweep.Exec {
	var exec sweep.Exec
	for _, opt := range opts {
		opt(&exec)
	}
	return exec
}

// WithWorkers sets the runner pool width used to fan the experiment's
// scenario grid out (0 = GOMAXPROCS, 1 = serial). Results are identical
// at every width.
func WithWorkers(n int) RunOption {
	return func(e *sweep.Exec) { e.Parallelism = n }
}

// WithShards partitions every simulated scenario's nodes across n
// event-engine shards run in lock-step time windows (0 or 1 = one heap,
// AutoShards = one per core). Workers parallelise across grid cells,
// shards inside one; output is byte-identical at every shard count.
func WithShards(n int) RunOption {
	return func(e *sweep.Exec) { e.Shards = n }
}

// AutoShards selects one event-engine shard per core.
const AutoShards = sweep.AutoShards

// WithSinks streams every completed grid cell's sweep.Result to the given
// sinks, in grid order, as runs land (see sweep.NewCSV, sweep.NewNDJSON,
// sweep.NewTable). The caller owns the sinks and flushes them after the
// last run.
func WithSinks(sinks ...sweep.Sink) RunOption {
	return func(e *sweep.Exec) { e.Sinks = append(e.Sinks, sinks...) }
}

// WithCache short-circuits grid cells whose canonical scenario hash is
// already stored in the cache: cache hits perform zero simulation work
// and report identical results (see sweep.OpenCache; the cache's
// Hits/Misses counters make the skips observable).
func WithCache(c *sweep.Cache) RunOption {
	return func(e *sweep.Exec) { e.Cache = c }
}

// WithDebug streams execution observability to w as cells complete:
// per-cell shard load balance (per-shard event counts, window count,
// barrier waits) and per-grid runner-pool backpressure (local claims,
// steals, failed steal scans, mean queue depth). Purely observational —
// results, sinks, and the cache never see it.
func WithDebug(w io.Writer) RunOption {
	return func(e *sweep.Exec) { e.Debug = w }
}

// ExperimentIDs returns the available experiment identifiers in display
// order: figures, tables, then ablations.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		ids[i] = e.ID
	}
	return ids
}

// RunExperiment executes a named experiment at the given scale and returns
// its result tables. WithSinks streams each grid cell's structured Result
// as well, and WithCache skips cells already present in a result cache.
func RunExperiment(id string, scale Scale, opts ...RunOption) ([]Table, error) {
	deployment, ok := deployments[scale]
	if !ok {
		return nil, fmt.Errorf("sim: unknown scale %q", scale)
	}
	e, ok := experiments.ByID(strings.ToLower(id))
	if !ok {
		return nil, fmt.Errorf("sim: unknown experiment %q (known: %s)",
			id, strings.Join(ExperimentIDs(), ", "))
	}
	results, err := e.Run(deployment(), execOf(opts))
	if err != nil {
		return nil, err
	}
	return []Table{e.Render(results)}, nil
}

// RunSweep executes a user-declared factorial design: the grid expands to
// its deduplicated cells, each measured like a Run. Results stream to
// WithSinks sinks in grid order as runs land and are cached under
// WithCache, so re-running a sweep re-simulates only new cells.
func RunSweep(grid sweep.Grid, opts ...RunOption) ([]sweep.Result, error) {
	return experiments.RunSweep(execOf(opts), grid)
}
