package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// tinySweepGrid is a small mixed-defense design for end-to-end sweep
// tests; cells carry their own deployment size (RunSweep runs a grid as
// declared).
func tinySweepGrid() sweep.Grid {
	return sweep.Grid{
		Base: Scenario{
			Duration: 30 * time.Second, AttackStart: 8 * time.Second, AttackStop: 22 * time.Second,
			NumClients: 3, ClientRate: 8, BotCount: 3, PerBotRate: 60,
			Backlog: 96, AcceptBacklog: 96, Workers: 32,
			ClientsSolve: true, BotsSolve: true, Seed: 11,
		},
		Axes: []sweep.Axis{
			sweep.Defenses(DefenseCookies, DefensePuzzles),
			sweep.Seeds(11, 12),
		},
	}
}

// The serialization half of the determinism guarantee: CSV and NDJSON
// sink output must be byte-identical at every runner worker count, even
// though cells complete in different orders.
func TestSinkOutputIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep grid at three worker counts")
	}
	grid := tinySweepGrid()
	render := func(workers int) (csvOut, jsonOut string) {
		var csvBuf, jsonBuf bytes.Buffer
		exec := Exec{
			Parallelism: workers,
			Sinks:       []sweep.Sink{sweep.NewCSV(&csvBuf), sweep.NewNDJSON(&jsonBuf)},
		}
		if _, err := RunSweep(exec, grid); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return csvBuf.String(), jsonBuf.String()
	}
	wantCSV, wantJSON := render(1)
	if wantCSV == "" || wantJSON == "" {
		t.Fatal("empty sink output")
	}
	for _, workers := range []int{4, 8} {
		gotCSV, gotJSON := render(workers)
		if gotCSV != wantCSV {
			t.Errorf("workers=%d: CSV differs from workers=1:\n%s\nvs\n%s", workers, gotCSV, wantCSV)
		}
		if gotJSON != wantJSON {
			t.Errorf("workers=%d: NDJSON differs from workers=1", workers)
		}
	}
}

// Cells that differ only in puzzle difficulty under a defense that
// issues no puzzles share one simulation: Defenses(cookies, puzzles) ×
// Ms(12, 17) simulates three times, and every Result, cache entry and sink
// byte is what the cell gives run alone. Not skipped under -short, so the
// race job runs the grouped path.
func TestSweepSimulatesEachDeploymentOnce(t *testing.T) {
	grid := tinySweepGrid()
	grid.Axes = []sweep.Axis{sweep.Defenses(DefenseCookies, DefensePuzzles), sweep.Ms(12, 17)}
	cells := grid.Expand(nil)
	sweepWith := func(exec Exec) ([]sweep.Result, string, string) {
		t.Helper()
		var debug strings.Builder
		var out bytes.Buffer
		exec.Debug, exec.Sinks = &debug, []sweep.Sink{sweep.NewNDJSON(&out)}
		results, err := RunSweep(exec, grid)
		if err != nil {
			t.Fatalf("RunSweep: %v", err)
		}
		return results, debug.String(), out.String()
	}
	simulations := func(debug string) int { return strings.Count(debug, " events=") }

	results, debug, ndjson := sweepWith(Exec{Parallelism: 1})
	if n := simulations(debug); n != 3 {
		t.Errorf("%d simulations, want 3 (the cookies cells share one):\n%s", n, debug)
	}
	if want := `cell "defense=cookies/m=17": measured from the run of sweep cell 0 "defense=cookies/m=12"`; !strings.Contains(debug, want) {
		t.Errorf("debug output lacks %q:\n%s", want, debug)
	}
	for i, cell := range cells {
		alone, err := RunCells(Exec{}, []Scenario{cell})
		if err != nil {
			t.Fatalf("%s alone: %v", cell.Label, err)
		}
		got, want := results[i], alone[0]
		got.Exec, want.Exec = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: grouped Result differs from the cell run alone", cell.Label)
		}
	}
	if _, debug2, ndjson2 := sweepWith(Exec{Parallelism: 2}); ndjson2 != ndjson || simulations(debug2) != 3 {
		t.Errorf("workers=2: NDJSON identical %v, %d simulations; want identical and 3", ndjson2 == ndjson, simulations(debug2))
	}

	// A group simulates at its first miss and skips its hits: with one
	// cookies cell cached, the cookies group still simulates once, and a
	// fully cached grid simulates nothing.
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCells(Exec{Cache: cache}, cells[:1]); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ simulations, hits, misses int }{{3, 1, 3}, {0, 4, 0}} {
		hits, misses := cache.Hits(), cache.Misses()
		_, debug, out := sweepWith(Exec{Cache: cache, Parallelism: 2})
		if got := simulations(debug); got != want.simulations || int(cache.Hits()-hits) != want.hits || int(cache.Misses()-misses) != want.misses || out != ndjson {
			t.Errorf("cached pass: %d simulations, %d hits, %d misses, NDJSON identical %v; want %d, %d, %d, true",
				got, cache.Hits()-hits, cache.Misses()-misses, out == ndjson, want.simulations, want.hits, want.misses)
		}
	}

	// Invalid Params keep a cookies cell out of its valid neighbour's
	// group: it still fails, naming itself.
	bad := tinySweepGrid()
	bad.Axes = []sweep.Axis{sweep.Defenses(DefenseCookies), sweep.Ms(12, 40)}
	_, err = RunSweep(Exec{}, bad)
	if want := `scenario "defense=cookies/m=40": experiments: server: serversim: issuer: puzzle: m=40`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("invalid params beside valid ones: error %v, want one containing %q", err, want)
	}
}

// Cache behaviour at the executor level, with a synthetic compute so the
// test proves "cache hit = zero compute" without any simulation.
func TestRunCellsCacheSkipsCompute(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	e := Experiment{
		ID:   "cachetest",
		Grid: func(Scale) sweep.Grid { return sweep.Grid{Axes: []sweep.Axis{sweep.Seeds(1, 2, 3)}} },
		Cell: func(i int, sc Scenario) ([]sweep.Metric, []sweep.Series, error) {
			computed.Add(1)
			return []sweep.Metric{{Name: "seed", Value: float64(sc.Seed)}},
				[]sweep.Series{{Name: "trace", Values: []float64{float64(i)}}}, nil
		},
	}
	exec := Exec{Cache: cache}

	first, err := e.Run(Scale{}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if got := computed.Load(); got != 3 {
		t.Fatalf("first run computed %d cells, want 3", got)
	}
	if cache.Hits() != 0 || cache.Misses() != 3 {
		t.Fatalf("first run hits=%d misses=%d, want 0/3", cache.Hits(), cache.Misses())
	}

	second, err := e.Run(Scale{}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if got := computed.Load(); got != 3 {
		t.Errorf("second run re-computed cells: total %d, want 3", got)
	}
	if cache.Hits() != 3 || cache.Misses() != 3 {
		t.Errorf("second run hits=%d misses=%d, want 3/3", cache.Hits(), cache.Misses())
	}
	// Exec is per-process observability (pool stats, peak heap) and
	// documented as excluded from determinism comparisons; a cache-hit
	// run legitimately samples different heap peaks than a computed one.
	for i := range second {
		second[i].Exec = first[i].Exec
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached results differ:\n%+v\nvs\n%+v", first, second)
	}

	// A different experiment namespace must not see the entries.
	e.ID = "othertest"
	if _, err := e.Run(Scale{}, exec); err != nil {
		t.Fatal(err)
	}
	if got := computed.Load(); got != 6 {
		t.Errorf("other namespace computed %d total, want 6", got)
	}
}

// End-to-end: a cached sweep re-run performs zero simulation work and
// produces byte-identical sink output.
func TestRunSweepCachedRerunIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a small flood grid twice")
	}
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	grid := tinySweepGrid()
	run := func() string {
		var buf bytes.Buffer
		exec := Exec{Sinks: []sweep.Sink{sweep.NewCSV(&buf)}, Cache: cache}
		if _, err := RunSweep(exec, grid); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	cells := int64(len(grid.Expand(nil)))
	if cache.Misses() != cells || cache.Hits() != 0 {
		t.Fatalf("first run hits=%d misses=%d, want 0/%d", cache.Hits(), cache.Misses(), cells)
	}
	second := run()
	if cache.Hits() != cells {
		t.Errorf("second run hits=%d, want %d (100%% cache hits)", cache.Hits(), cells)
	}
	if first != second {
		t.Errorf("cached re-run output differs:\n%s\nvs\n%s", first, second)
	}
}

// Figs. 10 and 11 run the same cells with the same metric extraction;
// in one plan they share each cell's simulation through simKey, and each
// caches its cells under its own ID.
func TestFig10And11ShareSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the fig10 scenario pair")
	}
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exps := []Experiment{mustExp(t, "fig10"), mustExp(t, "fig11")}
	results, err := RunPlan(exps, TinyScale(), Exec{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	f10, f11 := results[0], results[1]
	if jobs := f10[0].Exec.Jobs; jobs != 2 {
		t.Errorf("fig10 + fig11 plan ran %d jobs, want 2 (one per deployment)", jobs)
	}
	if cache.Hits() != 0 || cache.Misses() != 4 {
		t.Errorf("plan hits=%d misses=%d, want 0/4 (each experiment's own entries)", cache.Hits(), cache.Misses())
	}
	for i := range f10 {
		if f11[i].Experiment != "fig11" || f10[i].Metric("attacker_established_during") != f11[i].Metric("attacker_established_during") {
			t.Errorf("cell %d: fig11 %q reports a different attacker_established_during from fig10's", i, f11[i].Experiment)
		}
	}
}

// One plan of every registered experiment simulates each distinct
// deployment once: at tiny scale 40 flood cells are 33 simulations, the 35
// model cells one job each, 68 jobs in all against 75 summed over plans of
// one experiment.
func TestPlanSimulatesEachDeploymentOnce(t *testing.T) {
	jobs := func(exps []Experiment) (floodJobs, modelJobs int) {
		var cells []planCell
		for k, e := range exps {
			for i, sc := range e.Grid(TinyScale()).Expand(nil) {
				cells = append(cells, planCell{exp: k, i: i, sc: sc.Defaults()})
			}
		}
		for _, g := range planGroups(exps, cells) {
			if exps[cells[g[0]].exp].Flood != nil {
				floodJobs++
			} else {
				modelJobs++
			}
		}
		return floodJobs, modelJobs
	}
	flood, model := jobs(Experiments)
	separate := 0
	for _, e := range Experiments {
		f, m := jobs([]Experiment{e})
		separate += f + m
	}
	if flood != 33 || model != 35 || separate != 75 {
		t.Errorf("plan of all: %d simulations + %d model cells, %d jobs summed over plans of one; want 33 + 35, 75", flood, model, separate)
	}
	if testing.Short() {
		t.Skip("runs every experiment at tiny scale")
	}
	var debug strings.Builder
	results, err := RunPlan(Experiments, TinyScale(), Exec{Debug: &debug})
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0][0].Exec.Jobs; got != 68 {
		t.Errorf("plan ran %d jobs, want 68", got)
	}
	if got := strings.Count(debug.String(), " events="); got != 33 {
		t.Errorf("plan simulated %d times, want 33", got)
	}
	if want := `[fig11] cell "challenges": measured from the run of fig8 cell 2 "challenges-m17"`; !strings.Contains(debug.String(), want) {
		t.Errorf("debug output lacks %q", want)
	}
	if got := strings.Count(debug.String(), "runner:"); got != 1 {
		t.Errorf("%d runner lines, want one per plan", got)
	}
}

// Every failure names the experiment and the failing cell:
// "experiments: <id>: scenario "<label>": …" — for a synthetic cell, a
// user sweep, and a registered experiment.
func TestFailuresNameExperimentAndCell(t *testing.T) {
	synthetic := Experiment{
		ID:   "errtest",
		Grid: func(Scale) sweep.Grid { return sweep.Grid{Axes: []sweep.Axis{sweep.Seeds(1, 2)}} },
		Cell: func(_ int, sc Scenario) ([]sweep.Metric, []sweep.Series, error) {
			if sc.Seed == 2 {
				return nil, nil, fmt.Errorf("boom")
			}
			return nil, nil, nil
		},
	}
	bogus := tinySweepGrid()
	bogus.Axes = []sweep.Axis{sweep.Defenses(DefenseCookies, "bogus")}
	fig7 := mustExp(t, "fig7")
	fig7.Flood, fig7.Cell = nil, func(_ int, sc Scenario) ([]sweep.Metric, []sweep.Series, error) {
		if sc.Label != "cookies" {
			return nil, nil, nil
		}
		sc.Defense = "bogus"
		_, err := RunFlood(sc)
		return nil, nil, err
	}
	for _, tc := range []struct {
		name string
		run  func() ([]sweep.Result, error)
		want string
	}{
		{"synthetic", func() ([]sweep.Result, error) { return synthetic.Run(Scale{}, Exec{}) },
			`experiments: errtest: scenario "seed=2": boom`},
		{"RunSweep", func() ([]sweep.Result, error) { return RunSweep(Exec{}, bogus) },
			`experiments: sweep: scenario "defense=bogus": experiments: server: serversim: defense: unknown defense "bogus"`},
		{"registered", func() ([]sweep.Result, error) { return fig7.Run(tinyScale(), Exec{}) },
			`experiments: fig7: scenario "cookies": experiments: server: serversim: defense: unknown defense "bogus"`},
	} {
		_, err := tc.run()
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want prefix %q", tc.name, err, tc.want)
		}
	}
}

// Two +Inf-rate points compare equal, so the grid holds one cell, and
// RunSweep still rejects that cell with an error naming it and the rate.
func TestRunSweepRejectsDedupedInfRate(t *testing.T) {
	inf := sweep.Point{Label: "inf", Set: func(sc *Scenario) { sc.PerBotRate = math.Inf(1) }}
	grid := tinySweepGrid()
	grid.Axes = []sweep.Axis{sweep.Variants("rate", inf, inf)}
	if cells := grid.Expand(nil); len(cells) != 1 {
		t.Fatalf("grid expands to %d cells, want 1", len(cells))
	}
	_, err := RunSweep(Exec{}, grid)
	if err == nil || !strings.HasPrefix(err.Error(), `experiments: sweep: scenario "inf": `) || !strings.Contains(err.Error(), "+Inf") {
		t.Errorf("RunSweep error %v, want one naming cell \"inf\" and the rate +Inf", err)
	}
}

// The new strategy plugins are first-class sweep citizens: runnable from
// a Defenses/Attacks grid axis, byte-identical sink output on a cached
// rerun (zero simulation work), and attached runner-pool exec stats.
func TestNewPluginsSweepCacheRoundTrip(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	grid := sweep.Grid{
		Base: Scenario{
			Duration: 24 * time.Second, AttackStart: 6 * time.Second, AttackStop: 18 * time.Second,
			NumClients: 3, ClientRate: 8, BotCount: 3, PerBotRate: 60,
			Backlog: 64, AcceptBacklog: 64, Workers: 24,
			ClientsSolve: true, Seed: 21,
		},
		Axes: []sweep.Axis{
			sweep.Defenses(DefenseHybrid, DefenseRateLimit),
			sweep.Attacks(AttackSYNFlood, AttackPulseFlood),
		},
	}
	render := func() string {
		var buf bytes.Buffer
		exec := Exec{Cache: cache, Sinks: []sweep.Sink{sweep.NewCSV(&buf)}}
		results, err := RunSweep(exec, grid)
		if err != nil {
			t.Fatalf("RunSweep: %v", err)
		}
		if len(results) != 4 {
			t.Fatalf("results = %d, want 4", len(results))
		}
		for _, r := range results {
			if r.Exec == nil || r.Exec.Jobs != 4 {
				t.Errorf("cell %q missing runner exec stats: %+v", r.Scenario.Label, r.Exec)
			}
		}
		return buf.String()
	}
	first := render()
	if first == "" {
		t.Fatal("empty sink output")
	}
	misses := cache.Misses()
	second := render()
	if second != first {
		t.Errorf("cached rerun output differs:\n%s\nvs\n%s", second, first)
	}
	if cache.Misses() != misses {
		t.Errorf("cached rerun missed %d times; new-plugin cells must hit", cache.Misses()-misses)
	}
	if cache.Hits() < 4 {
		t.Errorf("cache hits = %d, want ≥ 4", cache.Hits())
	}
}
