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

// Verdict is one claim's outcome on a run (see experiments.Claim).
type Verdict = experiments.Verdict

// Scale selects the experiment size.
type Scale string

// Experiment scales.
const (
	// ScalePaper is the full §6 deployment (600 s, 15 clients, 10 bots at
	// 500 pps). RunExperiment("all") takes 32–39 s of wall time at two
	// workers on a 2-vCPU AMD EPYC.
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
// per-cell event counts, event-queue counters and heap, and one runner
// line per plan (pool width, jobs claimed, peak heap). Purely
// observational — results, sinks, and the cache never see it.
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

// RunExperiment executes a named experiment, or "all" of them, at the
// given scale and returns their result tables, one per experiment in
// display order, and the verdict of every claim of those experiments, in
// the same order. "all" runs as one plan: deployments that several
// experiments measure simulate once. WithSinks streams each grid cell's
// structured Result as well, and WithCache skips cells already present in
// a result cache.
func RunExperiment(id string, scale Scale, opts ...RunOption) ([]Table, []Verdict, error) {
	deployment, ok := deployments[scale]
	if !ok {
		return nil, nil, fmt.Errorf("sim: unknown scale %q", scale)
	}
	exps := experiments.Experiments
	if name := strings.ToLower(id); name != "all" {
		e, ok := experiments.ByID(name)
		if !ok {
			return nil, nil, fmt.Errorf("sim: unknown experiment %q (known: %s, or all)",
				id, strings.Join(ExperimentIDs(), ", "))
		}
		exps = []experiments.Experiment{e}
	}
	s := deployment()
	results, err := experiments.RunPlan(exps, s, execOf(opts))
	if err != nil {
		return nil, nil, err
	}
	tables := make([]Table, len(exps))
	var verdicts []Verdict
	for k, e := range exps {
		tables[k] = e.Render(results[k])
		verdicts = append(verdicts, e.Check(s, results[k])...)
	}
	return tables, verdicts, nil
}

// RunSweep executes a user-declared factorial design: the grid expands to
// its deduplicated cells, each measured like a Run. Cells whose
// deployments are the same (they differ only in label, or only in puzzle
// parameters under a defense that issues no puzzles) share one
// simulation; each still gets the Result it would alone. Results stream
// to WithSinks sinks in grid order as runs land and are cached under
// WithCache, so re-running a sweep re-simulates only new cells.
func RunSweep(grid sweep.Grid, opts ...RunOption) ([]sweep.Result, error) {
	return experiments.RunSweep(execOf(opts), grid)
}
