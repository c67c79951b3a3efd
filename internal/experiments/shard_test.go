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
	var csvBuf, jsonBuf bytes.Buffer
	exec := Exec{
		Shards: shards, Parallelism: workers,
		Sinks: []sweep.Sink{sweep.NewCSV(&csvBuf), sweep.NewNDJSON(&jsonBuf)},
	}
	// Apply the scale so the cells are tiny; RunSweep's grid-as-declared
	// semantics would run the paper-scale defaults here.
	grid := shardMatrixGrid()
	grid.Base = tinyScale().Apply(grid.Base)
	results, err := RunSweep(exec, grid)
	if err != nil {
		t.Fatalf("RunSweep(shards=%d, workers=%d): %v", shards, workers, err)
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

// TestShardedSolvingBotsKeepBacklog: greedy solving bots queue challenges
// far faster than they solve them, and a solve run-queue's length is state
// no metric reports — at Shards=4 every bot must end with the serial run's
// queue, hundreds of jobs deep.
func TestShardedSolvingBotsKeepBacklog(t *testing.T) {
	base := tinyScale().Apply(Scenario{
		Label: "solving-backlog", ClientsSolve: true, BotsSolve: true,
		Defense: DefensePuzzles, Attack: AttackConnFlood,
	})
	serial, err := RunFlood(base)
	if err != nil {
		t.Fatalf("RunFlood(serial): %v", err)
	}
	sharded := base
	sharded.Shards = 4
	run, err := RunFlood(sharded)
	if err != nil {
		t.Fatalf("RunFlood(shards=4): %v", err)
	}
	for i, bot := range run.Botnet.Bots {
		got, want := bot.QueuedSolves(), serial.Botnet.Bots[i].QueuedSolves()
		if got != want || got < 100 {
			t.Errorf("bot %d ends with %d solves queued, serial run %d; want equal and a backlog of hundreds", i, got, want)
		}
	}
}
