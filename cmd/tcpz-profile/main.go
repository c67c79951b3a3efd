// Command tcpz-profile measures the local machine's SHA-256 hash rate and
// derives the model parameters of §4.3: the client valuation w (hashes
// affordable within the 400 ms handshake budget) and — given a measured or
// assumed server α — the Nash-equilibrium puzzle difficulty.
//
// Usage:
//
//	tcpz-profile                 # profile one core of this machine
//	tcpz-profile -alpha 1.1      # also compute (k*, m*)
//	tcpz-profile -budget 400ms -duration 2s
//	tcpz-profile -cores 8        # aggregate rate across 8 cores
//	tcpz-profile -sources 1000000
//	                             # run a macro-aggregated SYN flood of
//	                             # that many sources instead (scale probe)
//
// The -cpuprofile, -memprofile and -trace flags wrap the whole run in the
// standard pprof/trace collectors, so the hash loop — or anything layered
// on top of it — can be inspected with `go tool pprof` / `go tool trace`
// without editing code.
//
// -sources N switches the workload from hash profiling to a fixed
// macro-source flood scenario (no scenario file needed): N spoofed
// sources SYN-flood the puzzle-defended server for 20 simulated seconds.
// It prints wall-clock time, event throughput and retained heap, and is
// the intended companion of -cpuprofile/-memprofile for profiling the
// 10k/100k/1M macro execution path.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"github.com/tcppuzzles/tcppuzzles/game"
	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/sim/runner"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tcpz-profile:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tcpz-profile", flag.ContinueOnError)
	duration := fs.Duration("duration", 2*time.Second, "measurement length")
	budget := fs.Duration("budget", 400*time.Millisecond, "handshake usability budget")
	alpha := fs.Float64("alpha", 1.1, "server service parameter α (from a stress test)")
	cores := fs.Int("cores", 1, "measure this many cores in parallel (a solver uses one)")
	sources := fs.Int("sources", 0, "run a macro-aggregated SYN flood of this many sources instead of hash profiling")
	shards := fs.Int("shards", 0, "event-engine shards for the -sources flood (0 or 1 = single shard, -1 = one per core)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	traceFile := fs.String("trace", "", "write a runtime execution trace to this file (go tool trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cores < 1 {
		*cores = 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Stop()
	}
	writeHeap := func() {}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		writeHeap = func() {
			// GC first so the numbers mean retained, not garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tcpz-profile: memprofile:", err)
			}
			f.Close()
		}
	}
	if *sources > 0 {
		return runMacroFlood(*sources, *shards, writeHeap)
	}
	defer writeHeap()
	if max := runtime.GOMAXPROCS(0); *cores > max {
		// More busy-loop goroutines than cores would time-share and
		// understate every per-core number.
		fmt.Fprintf(os.Stderr, "tcpz-profile: clamping -cores %d to the %d available\n", *cores, max)
		*cores = max
	}

	// The solver of a single connection is single-threaded, so w derives
	// from an undisturbed solo measurement.
	rate := measureHashRate(*duration)
	wav := game.WavFromHashRate(rate, *budget)
	fmt.Printf("SHA-256 rate        %.0f hashes/s (single core)\n", rate)
	if *cores > 1 {
		// The aggregate rate bounds what a multi-core flooder on this
		// machine could solve; one measurement job per core on the
		// work-stealing runner.
		rates, err := runner.Map(*cores, *cores, func(int) (float64, error) {
			return measureHashRate(*duration), nil
		})
		if err != nil {
			return err
		}
		var total float64
		for _, r := range rates {
			total += r
		}
		fmt.Printf("aggregate rate      %.0f hashes/s across %d cores\n", total, *cores)
	}
	fmt.Printf("w (hashes in %v)    %.0f\n", *budget, wav)

	params, err := game.SelectParams(wav, *alpha, game.SelectionConfig{})
	if err != nil {
		return fmt.Errorf("select difficulty: %w", err)
	}
	lstar, err := game.LStar(wav, *alpha)
	if err != nil {
		return err
	}
	fmt.Printf("α                   %.3f\n", *alpha)
	fmt.Printf("ℓ* = w/(α+1)        %.0f hashes\n", lstar)
	fmt.Printf("Nash difficulty     k=%d m=%d (expected solve %.0f hashes, verify %.1f)\n",
		params.K, params.M, params.ExpectedSolveHashes(), params.ExpectedVerifyHashes())
	fmt.Printf("solve time here     %v\n",
		time.Duration(params.ExpectedSolveHashes()/rate*float64(time.Second)).Round(time.Millisecond))
	return nil
}

// runMacroFlood executes the fixed macro-source scale scenario: sources
// spoofed SYN-flooders against the puzzle-defended server over 20
// simulated seconds — the same shape as the CI bounded-memory wall and
// BenchmarkMacroFlood, so profiles line up with both. writeHeap writes the
// heap profile while the completed run is still reachable, so the profile
// shows what the run retains.
func runMacroFlood(sources, shards int, writeHeap func()) error {
	sc := experiments.Scenario{
		Label:    fmt.Sprintf("profile-%d", sources),
		Duration: 20 * time.Second, AttackStart: 2 * time.Second, AttackStop: 18 * time.Second,
		NumClients: 2, ClientRate: 4,
		Defense: experiments.DefensePuzzles, Attack: experiments.AttackSYNFlood,
		BotCount: sweep.NoBotnet, MacroSources: sources, PerBotRate: 0.05,
		Backlog: 512, AcceptBacklog: 128, Workers: 24,
		Seed:   11,
		Shards: shards,
	}
	start := time.Now()
	run, err := experiments.RunFlood(sc)
	if err != nil {
		return fmt.Errorf("macro flood: %w", err)
	}
	wall := time.Since(start)
	sent := run.Macro.TotalSent(0, sc.Duration)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("sources             %d\n", sources)
	fmt.Printf("packets sent        %.0f\n", sent)
	fmt.Printf("wall time           %v\n", wall.Round(time.Millisecond))
	fmt.Printf("packets/s (wall)    %.0f\n", sent/wall.Seconds())
	fmt.Printf("retained heap       %d MiB (HeapSys %d MiB)\n", ms.HeapAlloc>>20, ms.HeapSys>>20)
	writeHeap()
	runtime.KeepAlive(run)
	return nil
}

// measureHashRate runs SHA-256 over a counter for the given duration — the
// profiling loop behind Fig. 3a and Table 1.
func measureHashRate(d time.Duration) float64 {
	var buf [40]byte
	deadline := time.Now().Add(d)
	var n uint64
	start := time.Now()
	for time.Now().Before(deadline) {
		// Batch to keep the clock out of the hot loop.
		for i := 0; i < 4096; i++ {
			binary.BigEndian.PutUint64(buf[:8], n)
			sum := sha256.Sum256(buf[:])
			buf[8] = sum[0] // data-dependence defeats dead-code elimination
			n++
		}
	}
	return float64(n) / time.Since(start).Seconds()
}
