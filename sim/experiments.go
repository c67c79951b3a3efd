package sim

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	inner := experiments.Table{Title: t.Title, Header: t.Header, Rows: t.Rows}
	return inner.String()
}

func fromInternal(t experiments.Table) Table {
	return Table{Title: t.Title, Header: t.Header, Rows: t.Rows}
}

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

func (s Scale) flood() (experiments.Scale, error) {
	switch s {
	case "", ScaleQuick:
		return experiments.QuickScale(), nil
	case ScalePaper:
		return experiments.PaperScale(), nil
	case ScaleTiny:
		return experiments.TinyScale(), nil
	default:
		return experiments.Scale{}, fmt.Errorf("sim: unknown scale %q", s)
	}
}

// RunOption tunes how an experiment executes (never what it computes).
type RunOption func(*experiments.Scale)

// WithWorkers sets the runner pool width used to fan the experiment's
// scenario grid out (0 = GOMAXPROCS, 1 = serial). Results are identical
// at every width.
func WithWorkers(n int) RunOption {
	return func(s *experiments.Scale) { s.Parallelism = n }
}

// WithShards partitions every simulated scenario's nodes across n
// event-engine shards executing concurrently in lock-step time windows
// (0 or 1 = the classic single heap, AutoShards = one per core). Like
// WithWorkers this is an execution knob only: metrics and sink output are
// byte-identical at every shard count. Workers parallelise *across* grid
// cells; shards parallelise *inside* one cell, which is what speeds up a
// single very large flood.
func WithShards(n int) RunOption {
	return func(s *experiments.Scale) { s.Shards = n }
}

// AutoShards selects one event-engine shard per core.
const AutoShards = sweep.AutoShards

// WithSinks streams every completed grid cell's sweep.Result to the given
// sinks, in grid order, as runs land (see sweep.NewCSV, sweep.NewNDJSON,
// sweep.NewTable). The caller owns the sinks and flushes them after the
// last run.
func WithSinks(sinks ...sweep.Sink) RunOption {
	return func(s *experiments.Scale) { s.Sinks = append(s.Sinks, sinks...) }
}

// WithCache short-circuits grid cells whose canonical scenario hash is
// already stored in the cache: cache hits perform zero simulation work
// and report identical results (see sweep.OpenCache; the cache's
// Hits/Misses counters make the skips observable).
func WithCache(c *sweep.Cache) RunOption {
	return func(s *experiments.Scale) { s.Cache = c }
}

// WithDebug streams execution observability to w as cells complete:
// per-cell shard load balance (per-shard event counts, window count,
// barrier waits) and per-grid runner-pool backpressure (local claims,
// steals, failed steal scans, mean queue depth). Purely observational —
// results, sinks, and the cache never see it.
func WithDebug(w io.Writer) RunOption {
	return func(s *experiments.Scale) { s.Debug = w }
}

// registry is the single source of truth for the available experiments:
// both ExperimentIDs (display order) and RunExperiment (dispatch) derive
// from it, so a driver cannot be listed but unrunnable or vice versa.
type registryEntry struct {
	id  string
	run func(scale experiments.Scale) ([]Table, error)
}

var registry = []registryEntry{
	{"fig3a", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.Fig3a(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig3b", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.Fig3b(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig6", func(scale experiments.Scale) ([]Table, error) {
		cfg := experiments.Fig6Config{Scale: scale}
		if scale.Duration < 600*time.Second {
			cfg.Ks = []uint8{1, 2, 4}
			cfg.Ms = []uint8{4, 10, 16}
			cfg.Connections = 100
		}
		r, err := experiments.Fig6(cfg)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig7", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.Fig7(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig8", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.Fig8(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig9", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.Fig9(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig10", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.Fig10(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig11", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.Fig11(scale)
		if err != nil {
			return nil, err
		}
		t := fromInternal(r.Table())
		t.Rows = append(t.Rows, []string{"reduction", fmt.Sprintf("%.1fx", r.ReductionFactor()), ""})
		return []Table{t}, nil
	}},
	{"fig12", func(scale experiments.Scale) ([]Table, error) {
		cfg := experiments.Fig12Config{Scale: scale}
		if scale.Duration < 600*time.Second {
			cfg.Ks = []uint8{1, 2}
			cfg.Ms = []uint8{12, 16, 17, 20}
		}
		r, err := experiments.Fig12(cfg)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig13", func(scale experiments.Scale) ([]Table, error) {
		rates := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
		if scale.Duration < 600*time.Second {
			rates = []float64{100, 400, 700, 1000}
		}
		r, err := experiments.Fig13(scale, rates)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig14", func(scale experiments.Scale) ([]Table, error) {
		sizes := []int{2, 4, 6, 8, 10, 12, 14}
		if scale.Duration < 600*time.Second {
			sizes = []int{2, 6, 10, 14}
		}
		r, err := experiments.Fig14(scale, sizes, 5000)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"fig15", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.Fig15(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"tab1", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.Table1(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"nash", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.NashExample(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"ablation-opportunistic", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.AblationOpportunistic(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"ablation-solutionflood", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.AblationSolutionFlood(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"ablation-membound", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.AblationMemoryBound(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"ablation-adaptive", func(scale experiments.Scale) ([]Table, error) {
		// The per-5s controller needs a longer attack than the default
		// reduced scale provides.
		if scale.Duration < 600*time.Second {
			scale.Duration = 160 * time.Second
			scale.AttackStart = 15 * time.Second
			scale.AttackStop = 105 * time.Second
		}
		r, err := experiments.AblationAdaptive(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
	{"armsrace", func(scale experiments.Scale) ([]Table, error) {
		r, err := experiments.ArmsRace(scale)
		if err != nil {
			return nil, err
		}
		return []Table{fromInternal(r.Table())}, nil
	}},
}

// ExperimentIDs returns the available experiment identifiers in display
// order (the registry's order: figures, tables, then ablations).
func ExperimentIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// RunExperiment executes a named experiment at the given scale and returns
// its result tables. The experiment's scenario grid fans out across the
// work-stealing runner; use WithWorkers to bound the pool width, WithSinks
// to stream each grid cell's structured Result as CSV/NDJSON/tables, and
// WithCache to skip cells already present in a result cache.
func RunExperiment(id string, scale Scale, opts ...RunOption) ([]Table, error) {
	fs, err := scale.flood()
	if err != nil {
		return nil, err
	}
	for _, opt := range opts {
		opt(&fs)
	}
	want := strings.ToLower(id)
	for _, e := range registry {
		if e.id == want {
			return e.run(fs)
		}
	}
	return nil, fmt.Errorf("sim: unknown experiment %q (known: %s)",
		id, strings.Join(ExperimentIDs(), ", "))
}

// RunSweep executes a user-declared factorial design: the grid expands to
// its deduplicated scenario cells, the cells fan out across the
// work-stealing runner, and each completed cell is measured with the
// standard flood metric set (client goodput per attack phase, effective
// attack rate, and the headline series). Results stream to WithSinks
// sinks in grid order as runs land and are cached under WithCache, so
// re-running a sweep re-simulates only new cells.
func RunSweep(grid sweep.Grid, opts ...RunOption) ([]sweep.Result, error) {
	var scale experiments.Scale // zero deployment: only execution options apply
	for _, opt := range opts {
		opt(&scale)
	}
	return experiments.RunSweep(scale, grid)
}
