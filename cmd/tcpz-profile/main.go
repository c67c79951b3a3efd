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
//
// The -cpuprofile, -memprofile and -trace flags wrap the whole run in the
// standard pprof/trace collectors, so the hash loop — or anything layered
// on top of it — can be inspected with `go tool pprof` / `go tool trace`
// without editing code.
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
	"github.com/tcppuzzles/tcppuzzles/sim/runner"
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
	budget := fs.Duration("budget", game.DefaultHandshakeBudget, "handshake usability budget")
	alpha := fs.Float64("alpha", 1.1, "server service parameter α (from a stress test)")
	cores := fs.Int("cores", 1, "measure this many cores in parallel (a solver uses one)")
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
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			// GC first so the numbers mean retained, not garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tcpz-profile: memprofile:", err)
			}
			f.Close()
		}()
	}
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
		// runner pool.
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

	params, err := game.SelectParams(wav, *alpha)
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
