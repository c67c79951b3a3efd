// Package tcppuzzles_test hosts the benchmarks no bench/ workload covers:
// the macro-source scale curve, a 12-bit puzzle solve and the
// memory-bound puzzle primitives.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The figure grids are measured end to end by bench/ (fig_grid_cold and
// fig_grid_warm, whose runner.speedup is the runner's scaling across
// cells) and pinned byte for byte by sweep.TestExperimentLedger; bench/'s
// puzzle.issue_ns, puzzle.verify_ns and puzzle.solve_us_m8 time the puzzle
// primitives. cmd/tcpz-exp runs the grids at every scale.
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

// macroFloodScenario is the macro-aggregated population behind
// BenchmarkMacroFlood: the same fixed 20-second SYN-flood shape as the CI
// bounded-memory wall (TestMacroFloodBoundedMemory), so both scale probes
// measure the same workload. Profile it with
// `go test -run '^$' -bench 'MacroFlood/sources=100000$' -cpuprofile cpu.out -memprofile mem.out .`.
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

// BenchmarkPuzzleSolveM12 times a solve at a difficulty bench/'s
// puzzle.solve_us_m8 does not reach.
func BenchmarkPuzzleSolveM12(b *testing.B) {
	is, err := puzzle.NewIssuer(puzzle.WithParams(puzzle.Params{K: 1, M: 12, L: 32}))
	if err != nil {
		b.Fatal(err)
	}
	flow := puzzle.FlowID{SrcIP: [4]byte{10, 0, 0, 2}, SrcPort: 4000, DstPort: 80, ISN: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flow.ISN = uint32(i)
		if _, _, err := puzzle.Solve(is.Issue(flow)); err != nil {
			b.Fatal(err)
		}
	}
}

// memboundLogSize sizes the membound benchmarks' table: 2^20 entries, a
// 4 MiB working set.
const memboundLogSize = 20

func BenchmarkMemboundSolve(b *testing.B) {
	tbl, err := membound.NewTable([]byte("bench"), memboundLogSize)
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
	tbl, err := membound.NewTable([]byte("bench"), memboundLogSize)
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
