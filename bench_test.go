// Package tcppuzzles_test hosts the execution-mode benchmarks — runner
// width, macro-aggregated sources, sharded engines — and microbenchmarks
// of the puzzle primitives.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The figure grids are measured end to end by bench/ (fig_grid_cold and
// fig_grid_warm) and pinned byte for byte by sim.TestExperimentLedger;
// cmd/tcpz-exp runs them at every scale.
package tcppuzzles_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/membound"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sim"
)

// runnerGrid is the scenario set behind BenchmarkRunnerParallel: six
// QuickScale deployments mixing defenses, attacks and seeds.
func runnerGrid() []sim.Scenario {
	quick := experiments.QuickScale()
	grid := quick.ApplyAll(
		sim.Scenario{Label: "puzzles-conn", Defense: sim.DefensePuzzles,
			Attack: sim.AttackConnFlood, ClientsSolve: true, BotsSolve: true},
		sim.Scenario{Label: "cookies-syn", Defense: sim.DefenseCookies,
			Attack: sim.AttackSYNFlood, ClientsSolve: true},
		sim.Scenario{Label: "none-conn", Defense: sim.DefenseNone,
			Attack: sim.AttackConnFlood, ClientsSolve: true},
		sim.Scenario{Label: "syncache-syn", Defense: sim.DefenseSYNCache,
			Attack: sim.AttackSYNFlood, ClientsSolve: true},
		sim.Scenario{Label: "puzzles-syn", Defense: sim.DefensePuzzles,
			Attack: sim.AttackSYNFlood, ClientsSolve: true},
		sim.Scenario{Label: "puzzles-solution", Defense: sim.DefensePuzzles,
			Attack: sim.AttackSolutionFlood, ClientsSolve: true},
	)
	for i := range grid {
		grid[i].Seed = int64(1 + i)
	}
	return grid
}

// BenchmarkRunnerParallel measures the work-stealing runner's wall-clock
// scaling over the QuickScale scenario grid. Expect workers=4 to complete
// in well under half the workers=1 time on a 4+-core machine, with
// byte-identical results (verified in TestRunAllMatchesSequentialRun and
// TestRunScenariosDeterministicAcrossWorkers). The simulation jobs are
// CPU-bound, so the observable speedup is capped by the cores the
// container actually grants (a single-core runner shows ~1x).
func BenchmarkRunnerParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			grid := runnerGrid()
			for i := 0; i < b.N; i++ {
				results, err := sim.RunAll(workers, grid)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(grid) {
					b.Fatalf("got %d results, want %d", len(results), len(grid))
				}
			}
		})
	}
}

// shardedFloodScenario is the large deployment behind
// BenchmarkShardedFlood: a response-heavy connection flood whose event
// count is dominated by per-client traffic, so node partitioning has real
// parallel work to win. Big enough that the lock-step window barriers
// (every ~4 ms of simulated time) amortise; small enough to iterate.
func shardedFloodScenario() sim.Scenario {
	return sim.Scenario{
		Label:    "sharded-flood",
		Duration: 30 * time.Second, AttackStart: 5 * time.Second, AttackStop: 25 * time.Second,
		NumClients: 24, ClientRate: 20, BotCount: 12, PerBotRate: 200,
		Backlog: 512, AcceptBacklog: 512, Workers: 64, Seed: 42,
		ClientsSolve: true, BotsSolve: true,
	}
}

// macroFloodScenario is the macro-aggregated population behind
// BenchmarkMacroFlood: the same fixed 20-second SYN-flood shape as the CI
// bounded-memory wall (TestMacroFloodBoundedMemory) and `tcpz-profile
// -sources`, so the three scale probes measure the same workload.
func macroFloodScenario(sources int) experiments.Scenario {
	return experiments.Scenario{
		Label:    fmt.Sprintf("macro-%d", sources),
		Duration: 20 * time.Second, AttackStart: 2 * time.Second, AttackStop: 18 * time.Second,
		NumClients: 2, ClientRate: 4,
		Defense: experiments.DefensePuzzles, Attack: experiments.AttackSYNFlood,
		BotCount: sim.NoBotnet, MacroSources: sources, PerBotRate: 0.05,
		Backlog: 512, AcceptBacklog: 128, Workers: 24,
		Seed: 11,
	}
}

// BenchmarkMacroFlood measures the macro-source execution path as the
// population grows 10k → 1M: one scheduled event drives a whole batch of
// sources per tick and per-source state is a few flat array slots, so
// runtime grows with packet count while retained heap stays tens of
// megabytes even at a million sources (a per-bot run of the same
// population would retain gigabytes). The measured sources-vs-RSS/runtime
// curve for the reference container is recorded in BENCH_scale.json.
func BenchmarkMacroFlood(b *testing.B) {
	for _, sources := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("sources=%d", sources), func(b *testing.B) {
			sc := macroFloodScenario(sources)
			for i := 0; i < b.N; i++ {
				run, err := experiments.RunFlood(sc)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(run.Macro.TotalSent(0, sc.Duration), "packets")
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MiB")
				runtime.KeepAlive(run)
			}
		})
	}
}

// shardCounts sweeps 1 → GOMAXPROCS in powers of two (always including at
// least 1, 2 and 4 so the curve is comparable across machines).
func shardCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1, 2, 4}
	for n := 8; n <= max; n *= 2 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkShardedFlood measures how the sharded event engine scales one
// large flood across cores (the complement of BenchmarkRunnerParallel,
// which scales *across* independent scenarios). Results are byte-identical
// at every shard count (TestShardDeterminismMatrix); shards only divide
// wall-clock time. The speedup is capped by the cores the container
// actually grants and by the busiest shard's share of the events (1.33x
// at two shards on this cell); run with -cpu 1,2. The two-core numbers
// are recorded in BENCH_shards.json.
func BenchmarkShardedFlood(b *testing.B) {
	for _, shards := range shardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sc := shardedFloodScenario()
			sc.Shards = shards
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.EffectiveAttackRate, "attacker-cps")
			}
		})
	}
}

// BenchmarkShardedGrid is the oversubscription probe: the tiny fig13 grid
// (four cells) through sim.RunSweep at two runner workers, serially and at
// four shards per cell — eight goroutines that may all be polling a window
// barrier at once, on however many Ps -cpu grants. The barrier's waiters
// yield between polls, so the sharded grid must cost no more than the
// windows themselves over the serial one (docs/PERFORMANCE.md "Window
// barrier"); -workers alone remains the first answer for grids.
func BenchmarkShardedGrid(b *testing.B) {
	fig13, _ := experiments.ByID("fig13")
	grid := fig13.Grid(experiments.TinyScale())
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=2/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := sim.RunSweep(grid, sim.WithWorkers(2), sim.WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != 4 {
					b.Fatalf("got %d results, want 4", len(results))
				}
			}
		})
	}
}

func benchIssuer(b *testing.B, p puzzle.Params) (*puzzle.Issuer, puzzle.FlowID) {
	b.Helper()
	is, err := puzzle.NewIssuer(puzzle.WithParams(p))
	if err != nil {
		b.Fatal(err)
	}
	return is, puzzle.FlowID{SrcIP: [4]byte{10, 0, 0, 2}, SrcPort: 4000, DstPort: 80, ISN: 7}
}

func BenchmarkPuzzleIssue(b *testing.B) {
	is, flow := benchIssuer(b, puzzle.Params{K: 2, M: 17, L: 32})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = is.Issue(flow)
	}
}

func BenchmarkPuzzleVerify(b *testing.B) {
	p := puzzle.Params{K: 2, M: 8, L: 32}
	is, flow := benchIssuer(b, p)
	sol, _, err := puzzle.Solve(is.Issue(flow))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := is.Verify(flow, sol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPuzzleSolveM8(b *testing.B) {
	is, flow := benchIssuer(b, puzzle.Params{K: 1, M: 8, L: 32})
	b.ReportAllocs()
	var hashes uint64
	for i := 0; i < b.N; i++ {
		flow.ISN = uint32(i)
		_, stats, err := puzzle.Solve(is.Issue(flow))
		if err != nil {
			b.Fatal(err)
		}
		hashes += stats.Hashes
	}
	b.ReportMetric(float64(hashes)/float64(b.N), "hashes/solve")
}

func BenchmarkPuzzleSolveM12(b *testing.B) {
	is, flow := benchIssuer(b, puzzle.Params{K: 1, M: 12, L: 32})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flow.ISN = uint32(i)
		if _, _, err := puzzle.Solve(is.Issue(flow)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemboundSolve(b *testing.B) {
	tbl, err := membound.NewTable([]byte("bench"), membound.DefaultLogSize)
	if err != nil {
		b.Fatal(err)
	}
	params := membound.Params{M: 8, Walk: 64}
	b.ReportAllocs()
	b.ResetTimer()
	var accesses uint64
	for i := 0; i < b.N; i++ {
		ch := membound.Challenge{Params: params, Preimage: []byte{byte(i), byte(i >> 8), byte(i >> 16)}}
		_, stats, err := tbl.Solve(ch, 0)
		if err != nil {
			b.Fatal(err)
		}
		accesses += stats.Accesses
	}
	b.ReportMetric(float64(accesses)/float64(b.N), "accesses/solve")
}

func BenchmarkMemboundVerify(b *testing.B) {
	tbl, err := membound.NewTable([]byte("bench"), membound.DefaultLogSize)
	if err != nil {
		b.Fatal(err)
	}
	ch := membound.Challenge{Params: membound.Params{M: 8, Walk: 64}, Preimage: []byte("v")}
	sol, _, err := tbl.Solve(ch, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Verify(ch, sol); err != nil {
			b.Fatal(err)
		}
	}
}
