package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// shardMatrixGrid is a mid-size flood grid mixing defenses and attacks so
// the determinism matrix exercises spoofed SYN floods (unroutable
// replies), solving connection floods (CPU-model feedback), the full
// server pipeline, and every plugin registered outside the paper's four —
// a new strategy is only "registered" once it holds byte-identical output
// across shard and worker counts here.
func shardMatrixGrid() sweep.Grid {
	return sweep.Grid{
		Base: Scenario{ClientsSolve: true, BotsSolve: true},
		Axes: []sweep.Axis{sweep.Variants("cell",
			// Greedy solving bots: every challenge is queued, so each
			// bot's solve run-queue grows to thousands of jobs behind one
			// armed engine event.
			sweep.Point{Label: "puzzles-conn", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackConnFlood
				sc.BotMaxSolveBacklog = 0
			}},
			sweep.Point{Label: "cookies-syn", Set: func(sc *Scenario) {
				sc.Defense = DefenseCookies
				sc.Attack = AttackSYNFlood
			}},
			sweep.Point{Label: "hybrid-conn", Set: func(sc *Scenario) {
				sc.Defense = DefenseHybrid
				sc.Attack = AttackConnFlood
			}},
			sweep.Point{Label: "ratelimit-syn", Set: func(sc *Scenario) {
				sc.Defense = DefenseRateLimit
				sc.Attack = AttackSYNFlood
			}},
			sweep.Point{Label: "puzzles-pulse", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackPulseFlood
			}},
			// Macro-aggregated populations ride the same matrix: batch
			// events, SoA source store, and aggregate server metrics must
			// hold the byte-identity bar at every shard and worker count.
			sweep.Point{Label: "macro-syn", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackSYNFlood
				sc.MacroSources = 40
			}},
			sweep.Point{Label: "macro-conn", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackConnFlood
				sc.MacroSources = 40
			}},
			// The adaptive arms race: in-run difficulty retuning and
			// replicator budget reallocation must adapt identically at
			// every shard count — both plugins derive state only from
			// their own observation streams, and this is where that
			// contract is enforced.
			sweep.Point{Label: "adaptive-conn", Set: func(sc *Scenario) {
				sc.Defense = DefenseAdaptivePuzzles
				sc.Attack = AttackConnFlood
			}},
			sweep.Point{Label: "puzzles-adaptiveflood", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackAdaptiveFlood
			}},
			sweep.Point{Label: "adaptive-adaptive", Set: func(sc *Scenario) {
				sc.Defense = DefenseAdaptivePuzzles
				sc.Attack = AttackAdaptiveFlood
			}},
		)},
	}
}

// runShardMatrixCell executes the grid at one (shards, workers)
// combination and returns the streamed CSV and NDJSON sink bytes plus the
// structured results.
func runShardMatrixCell(t *testing.T, shards, workers int) ([]byte, []byte, []sweep.Result) {
	t.Helper()
	return runMatrixCell(t, shardMatrixGrid(), shards, workers, false)
}

// runMatrixCell is the shared executor behind the conservative and
// speculative determinism matrices: one grid at one (shards, workers,
// speculative) combination.
func runMatrixCell(t *testing.T, grid sweep.Grid, shards, workers int, speculative bool) ([]byte, []byte, []sweep.Result) {
	t.Helper()
	scale := tinyScale()
	scale.Shards = shards
	scale.Parallelism = workers
	scale.Speculative = speculative
	var csvBuf, jsonBuf bytes.Buffer
	scale.Sinks = []sweep.Sink{sweep.NewCSV(&csvBuf), sweep.NewNDJSON(&jsonBuf)}
	// Expand with the scale so the cells are tiny; RunSweep's grid-as-
	// declared semantics would run the paper-scale defaults here.
	cells := grid.Expand(&scale)
	results, _, err := runFloodCells(scale, "shardmatrix", "", cells, StandardMetrics)
	if err != nil {
		t.Fatalf("runFloodCells(shards=%d, workers=%d, speculative=%v): %v", shards, workers, speculative, err)
	}
	return csvBuf.Bytes(), jsonBuf.Bytes(), results
}

// TestShardDeterminismMatrix is the PR's non-negotiable invariant one
// layer up from netsim: a flood simulated at shards 1/2/4/8 × workers 1/4
// produces byte-identical CSV and NDJSON sink output and equal structured
// Results. It extends the cross-worker determinism tests of the runner
// (TestSinkOutputIdenticalAcrossWorkers) one level deeper, into the event
// engine itself.
func TestShardDeterminismMatrix(t *testing.T) {
	wantCSV, wantJSON, wantResults := runShardMatrixCell(t, 1, 1)
	if len(wantResults) == 0 || len(wantCSV) == 0 || len(wantJSON) == 0 {
		t.Fatal("baseline run produced no output")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			if shards == 1 && workers == 1 {
				continue
			}
			csvOut, jsonOut, results := runShardMatrixCell(t, shards, workers)
			if !bytes.Equal(csvOut, wantCSV) {
				t.Errorf("shards=%d workers=%d: CSV output differs from baseline\n got:\n%s\nwant:\n%s",
					shards, workers, csvOut, wantCSV)
			}
			if !bytes.Equal(jsonOut, wantJSON) {
				t.Errorf("shards=%d workers=%d: NDJSON output differs from baseline", shards, workers)
			}
			// Result structs carry two execution-only knobs: the Shards
			// setting and the runner-pool Exec stats (scheduling-dependent
			// by design). Mask both before comparing the measurements.
			for i := range results {
				results[i].Scenario.Shards = wantResults[i].Scenario.Shards
				results[i].Exec = wantResults[i].Exec
			}
			if !reflect.DeepEqual(results, wantResults) {
				t.Errorf("shards=%d workers=%d: Results differ from baseline", shards, workers)
			}
		}
	}
}

// specMatrixGrid is the speculative determinism sub-grid: one spoofed
// macro-source cell, one bursty pulse cell, one plain solving flood, and
// the adaptive arms race — the cells whose state (SoA source stores,
// batch rounds, controller state) stresses snapshot/rollback hardest.
func specMatrixGrid() sweep.Grid {
	return sweep.Grid{
		Base: Scenario{ClientsSolve: true, BotsSolve: true},
		Axes: []sweep.Axis{sweep.Variants("cell",
			sweep.Point{Label: "puzzles-conn", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackConnFlood
			}},
			sweep.Point{Label: "puzzles-pulse", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackPulseFlood
			}},
			sweep.Point{Label: "macro-syn", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackSYNFlood
				sc.MacroSources = 40
			}},
			sweep.Point{Label: "adaptive-adaptive", Set: func(sc *Scenario) {
				sc.Defense = DefenseAdaptivePuzzles
				sc.Attack = AttackAdaptiveFlood
			}},
		)},
	}
}

// TestSpeculativeShardDeterminismMatrix extends the determinism matrix
// with speculative execution: every speculative (shards, workers) cell of
// the sub-grid must emit byte-identical sink output and equal structured
// Results against the conservative single-shard oracle. Speculative and
// Shards are execution-only knobs, masked like Exec before the struct
// compare.
func TestSpeculativeShardDeterminismMatrix(t *testing.T) {
	grid := specMatrixGrid()
	wantCSV, wantJSON, wantResults := runMatrixCell(t, grid, 1, 1, false)
	if len(wantResults) == 0 || len(wantCSV) == 0 || len(wantJSON) == 0 {
		t.Fatal("baseline run produced no output")
	}
	for _, shards := range []int{2, 4, 8} {
		for _, workers := range []int{1, 4} {
			csvOut, jsonOut, results := runMatrixCell(t, grid, shards, workers, true)
			if !bytes.Equal(csvOut, wantCSV) {
				t.Errorf("speculative shards=%d workers=%d: CSV output differs from conservative oracle\n got:\n%s\nwant:\n%s",
					shards, workers, csvOut, wantCSV)
			}
			if !bytes.Equal(jsonOut, wantJSON) {
				t.Errorf("speculative shards=%d workers=%d: NDJSON output differs from conservative oracle", shards, workers)
			}
			for i := range results {
				results[i].Scenario.Shards = wantResults[i].Scenario.Shards
				results[i].Scenario.Speculative = wantResults[i].Scenario.Speculative
				results[i].Exec = wantResults[i].Exec
			}
			if !reflect.DeepEqual(results, wantResults) {
				t.Errorf("speculative shards=%d workers=%d: Results differ from conservative oracle", shards, workers)
			}
		}
	}
}

// TestSpeculativeOracleDifferential is the straggler-heavy pinned
// fixture: a bursty pulse flood sharded 4 ways runs speculatively against
// its conservative single-shard oracle. The runs must agree exactly, and
// the speculative run must actually have rolled shards back — otherwise
// the differential proves nothing about the rollback machinery.
func TestSpeculativeOracleDifferential(t *testing.T) {
	base := tinyScale().Apply(Scenario{
		Label: "oracle", ClientsSolve: true, BotsSolve: true,
		Defense: DefensePuzzles, Attack: AttackPulseFlood,
	})
	oracle, err := RunFlood(base)
	if err != nil {
		t.Fatalf("RunFlood(oracle): %v", err)
	}
	spec := base
	spec.Shards = 4
	spec.Speculative = true
	run, err := RunFlood(spec)
	if err != nil {
		t.Fatalf("RunFlood(speculative): %v", err)
	}
	wantMetrics, wantSeries := StandardMetrics(oracle)
	gotMetrics, gotSeries := StandardMetrics(run)
	if !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Errorf("speculative metrics diverged from oracle:\n got: %+v\nwant: %+v", gotMetrics, wantMetrics)
	}
	if !reflect.DeepEqual(gotSeries, wantSeries) {
		t.Error("speculative series diverged from oracle")
	}
	st := run.Net.ShardStats()
	if st.Rollbacks == 0 {
		t.Error("Rollbacks = 0: the pinned fixture no longer provokes mis-speculation")
	}
	if st.SpeculativeWindows == 0 {
		t.Error("SpeculativeWindows = 0: speculation never engaged")
	}
}

// TestAutoShardsRuns exercises the AutoShards sentinel end to end: the
// shard count is sized to the machine and the run must still match the
// single-shard baseline.
func TestAutoShardsRuns(t *testing.T) {
	base := tinyScale().Apply(Scenario{Label: "auto", ClientsSolve: true, BotsSolve: true})
	want, err := RunFlood(base)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	auto := base
	auto.Shards = sweep.AutoShards
	got, err := RunFlood(auto)
	if err != nil {
		t.Fatalf("RunFlood(auto): %v", err)
	}
	if !reflect.DeepEqual(got.ClientThroughputMbps(), want.ClientThroughputMbps()) {
		t.Error("AutoShards client throughput differs from single-shard run")
	}
	if !reflect.DeepEqual(got.ServerThroughputMbps(), want.ServerThroughputMbps()) {
		t.Error("AutoShards server throughput differs from single-shard run")
	}
}

// TestShardsExcludedFromCacheHash pins the cache-key contract: shard
// count never enters the scenario hash, so a cell computed sharded hits
// for a rerun unsharded (and vice versa).
func TestShardsExcludedFromCacheHash(t *testing.T) {
	sc := Scenario{Label: "hash", Seed: 3}
	plain := sweep.Hash("exp", sc)
	sc.Shards = 8
	if got := sweep.Hash("exp", sc); got != plain {
		t.Errorf("Shards changed the cache hash: %s vs %s", got, plain)
	}
	sc.Shards = sweep.AutoShards
	if got := sweep.Hash("exp", sc); got != plain {
		t.Error("AutoShards changed the cache hash")
	}
	// Still sensitive to fields that do change results.
	sc.Seed = 4
	if got := sweep.Hash("exp", sc); got == plain {
		t.Error("seed change did not change the cache hash")
	}
}

// TestSpeculativeExcludedFromCacheHash pins the same contract for the
// speculation knob: a speculative rerun of a conservatively-cached cell
// must hash identically (and therefore hit), because the results are
// byte-identical by construction.
func TestSpeculativeExcludedFromCacheHash(t *testing.T) {
	sc := Scenario{Label: "hash", Seed: 3}
	plain := sweep.Hash("exp", sc)
	sc.Speculative = true
	if got := sweep.Hash("exp", sc); got != plain {
		t.Errorf("Speculative changed the cache hash: %s vs %s", got, plain)
	}
	sc.Shards = 8
	if got := sweep.Hash("exp", sc); got != plain {
		t.Error("Speculative+Shards changed the cache hash")
	}
}

// TestSpeculativeOracleDifferentialSolvingBots is the rollback fixture for
// the solve run-queues: greedy solving bots queue challenges far faster
// than they solve them, so from the first challenge on every snapshot a
// speculative round takes holds non-empty queues, and every rollback must
// rewind them together with the armed head event in the engine.
func TestSpeculativeOracleDifferentialSolvingBots(t *testing.T) {
	base := tinyScale().Apply(Scenario{
		Label: "oracle-solving", ClientsSolve: true, BotsSolve: true,
		Defense: DefensePuzzles, Attack: AttackConnFlood,
	})
	oracle, err := RunFlood(base)
	if err != nil {
		t.Fatalf("RunFlood(oracle): %v", err)
	}
	spec := base
	spec.Shards = 4
	spec.Speculative = true
	run, err := RunFlood(spec)
	if err != nil {
		t.Fatalf("RunFlood(speculative): %v", err)
	}
	wantMetrics, wantSeries := StandardMetrics(oracle)
	gotMetrics, gotSeries := StandardMetrics(run)
	if !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Errorf("speculative metrics diverged from oracle:\n got: %+v\nwant: %+v", gotMetrics, wantMetrics)
	}
	if !reflect.DeepEqual(gotSeries, wantSeries) {
		t.Error("speculative series diverged from oracle")
	}
	if st := run.Net.ShardStats(); st.Rollbacks == 0 {
		t.Error("Rollbacks = 0: the fixture no longer provokes mis-speculation")
	}
	for i, bot := range run.Botnet.Bots {
		got, want := bot.QueuedSolves(), oracle.Botnet.Bots[i].QueuedSolves()
		if got != want || got < 100 {
			t.Errorf("bot %d ends with %d solves queued, oracle %d; want equal and a backlog of hundreds", i, got, want)
		}
	}
}
