package experiments

import (
	"fmt"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/stats"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// Fig12Config selects the difficulty grid for Experiment 3.
type Fig12Config struct {
	// Ks and Ms form the grid; defaults are the paper's {1..4} ×
	// {12,15,16,17,18,20}.
	Ks []uint8
	Ms []uint8
	// Scale sets the underlying flood scenario and the execution options
	// (runner width, sinks, cache).
	Scale Scale
}

func (c *Fig12Config) fill() {
	if len(c.Ks) == 0 {
		c.Ks = []uint8{1, 2, 3, 4}
	}
	if len(c.Ms) == 0 {
		c.Ms = []uint8{12, 15, 16, 17, 18, 20}
	}
	if c.Scale.Duration == 0 {
		c.Scale = PaperScale().WithExec(c.Scale)
	}
}

// Fig12Grid declares the (k, m) difficulty product of Experiment 3 over
// the canonical connection-flood cell.
func Fig12Grid(ks, ms []uint8) sweep.Grid {
	return sweep.Grid{
		Base: Scenario{
			Defense:      DefensePuzzles,
			Attack:       AttackConnFlood,
			ClientsSolve: true,
			BotsSolve:    true,
			// The difficulty sweep assumes the strongest attacker:
			// bots bound their solve backlog so solutions stay fresh.
			// A greedy flooder's solutions go stale at any m, which
			// would make every difficulty look equally effective.
			BotMaxSolveBacklog: 2 * time.Second,
		},
		Axes: []sweep.Axis{sweep.Ks(ks...), sweep.Ms(ms...)},
	}
}

// Fig12Cell is one box of the grid: client-throughput statistics during
// the attack.
type Fig12Cell struct {
	Params puzzle.Params
	Box    stats.Box
}

// Fig12Result is the difficulty grid of Experiment 3.
type Fig12Result struct {
	Results []sweep.Result
}

// Fig12 sweeps puzzle difficulties during a connection flood and reports
// client-throughput box statistics per (k, m) — the Nash cell (2,17) should
// show the most stable (lowest-variance) throughput. The whole (k, m) grid
// is declared up front and executed in parallel on the shared runner.
func Fig12(cfg Fig12Config) (*Fig12Result, error) {
	cfg.fill()
	cells := Fig12Grid(cfg.Ks, cfg.Ms).Expand(&cfg.Scale)
	results, _, err := runFloodCells(cfg.Scale, "fig12", "", cells, fig12Metrics)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig12: %w", err)
	}
	return &Fig12Result{Results: results}, nil
}

func fig12Metrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	box := stats.BoxOf(run.ClientThroughputSamplesDuringAttack())
	return []sweep.Metric{
		{Name: "client_mbps_mean", Value: box.Mean},
		{Name: "client_mbps_std", Value: box.Std},
		{Name: "client_mbps_q1", Value: box.Q1},
		{Name: "client_mbps_med", Value: box.Med},
		{Name: "client_mbps_q3", Value: box.Q3},
		{Name: "samples", Value: float64(box.N)},
	}, nil
}

// Table renders the grid.
func (r *Fig12Result) Table() Table {
	t := Table{
		Title:  "Fig 12 — client throughput during attack by difficulty (Mbps)",
		Header: []string{"k", "m", "mean", "std", "q1", "med", "q3"},
	}
	for _, res := range r.Results {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", res.Scenario.Params.K),
			fmt.Sprintf("%d", res.Scenario.Params.M),
			f2(res.Metric("client_mbps_mean")), f2(res.Metric("client_mbps_std")),
			f2(res.Metric("client_mbps_q1")), f2(res.Metric("client_mbps_med")),
			f2(res.Metric("client_mbps_q3")),
		})
	}
	return t
}

// CellFor returns the box for a difficulty.
func (r *Fig12Result) CellFor(k, m uint8) (Fig12Cell, bool) {
	for _, res := range r.Results {
		if res.Scenario.Params.K == k && res.Scenario.Params.M == m {
			return Fig12Cell{
				Params: res.Scenario.Params,
				Box: stats.Box{
					N:    int(res.Metric("samples")),
					Mean: res.Metric("client_mbps_mean"),
					Std:  res.Metric("client_mbps_std"),
					Q1:   res.Metric("client_mbps_q1"),
					Med:  res.Metric("client_mbps_med"),
					Q3:   res.Metric("client_mbps_q3"),
				},
			}, true
		}
	}
	return Fig12Cell{}, false
}
