package experiments

import (
	"bytes"
	"fmt"
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
		Cell: func(i int, sc Scenario, _ func(string, ...any)) ([]sweep.Metric, []sweep.Series, error) {
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
// they share a cache namespace so regenerating one makes the other free.
func TestFig10And11ShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the fig10 scenario pair")
	}
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exec := Exec{Cache: cache}
	f10, err := mustExp(t, "fig10").Run(TinyScale(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 0 || cache.Misses() != 2 {
		t.Fatalf("fig10 hits=%d misses=%d, want 0/2", cache.Hits(), cache.Misses())
	}
	fig11 := mustExp(t, "fig11")
	fig11.Cell = func(int, Scenario, func(string, ...any)) ([]sweep.Metric, []sweep.Series, error) {
		return nil, nil, fmt.Errorf("fig11 simulated despite cache hits")
	}
	f11, err := fig11.Run(TinyScale(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 2 {
		t.Errorf("fig11 hits=%d, want 2 (shared namespace)", cache.Hits())
	}
	if f10[0].Metric("attacker_established_during") !=
		f11[0].Metric("attacker_established_during") {
		t.Error("shared cells report different metrics")
	}
}

// Every failure names the experiment and the failing cell:
// "experiments: <id>: scenario "<label>": …" — for a synthetic cell, a
// user sweep, and a registered experiment.
func TestFailuresNameExperimentAndCell(t *testing.T) {
	synthetic := Experiment{
		ID:   "errtest",
		Grid: func(Scale) sweep.Grid { return sweep.Grid{Axes: []sweep.Axis{sweep.Seeds(1, 2)}} },
		Cell: func(_ int, sc Scenario, _ func(string, ...any)) ([]sweep.Metric, []sweep.Series, error) {
			if sc.Seed == 2 {
				return nil, nil, fmt.Errorf("boom")
			}
			return nil, nil, nil
		},
	}
	bogus := tinySweepGrid()
	bogus.Axes = []sweep.Axis{sweep.Defenses(DefenseCookies, "bogus")}
	fig7 := mustExp(t, "fig7")
	simulate := fig7.Cell
	fig7.Cell = func(i int, sc Scenario, logf func(string, ...any)) ([]sweep.Metric, []sweep.Series, error) {
		if sc.Label != "cookies" {
			return nil, nil, nil
		}
		sc.Defense = "bogus"
		return simulate(i, sc, logf)
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
