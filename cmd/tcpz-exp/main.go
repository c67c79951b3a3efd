// Command tcpz-exp runs the paper's experiments and emits their results.
// The selected experiments run as one plan: every grid's cells fan out
// across one work-stealing runner pool, and a deployment several
// experiments read (-exp all) is simulated once; -workers bounds the pool
// (0 = all cores). Results are identical at every worker count.
//
// Besides the default pretty tables, -format csv|json streams every grid
// cell's structured result (long-format CSV rows, or NDJSON including the
// per-bucket series) to stdout or -out as runs land; -fold-seeds folds
// replicated cells (Seeds axes) into mean/stddev rows. -cache-dir enables
// the scenario-hash result cache: re-running any experiment skips every
// already-computed cell and reports the hit/miss counters on stderr.
//
// The defense and attack coordinates of every scenario resolve in the
// strategy plugin registries; -list-defenses and -list-attacks print what
// is registered, tagging the defenses that issue puzzles "[puzzles]" (a
// sweep simulates cells that differ only in puzzle parameters under any
// other defense once). -verbose narrates execution on stderr: per-cell event
// counts and heap usage, and one runner line per invocation with the
// pool's backpressure and the plan's peak heap — the memory headroom
// signal for macro-source scale runs.
//
// Usage:
//
//	tcpz-exp -exp fig8 -scale paper
//	tcpz-exp -exp all -scale quick -workers 4
//	tcpz-exp -exp fig12 -scale paper -format csv -out fig12.csv -cache-dir ~/.cache/tcpz
//	tcpz-exp -exp fig13 -scale quick -verbose
//	tcpz-exp -list -list-defenses -list-attacks
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/tcppuzzles/tcppuzzles/sim"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tcpz-exp:", err)
		os.Exit(1)
	}
}

// run executes the command line args, writing listings and experiment
// output to stdout unless -out names a file.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tcpz-exp", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (see -list) or 'all'")
	scale := fs.String("scale", "quick", "experiment scale: tiny, quick or paper")
	workers := fs.Int("workers", 0, "runner pool width (0 = all cores, 1 = serial)")
	format := fs.String("format", "table", "output format: table, csv or json (NDJSON)")
	out := fs.String("out", "", "write experiment output to this file (default stdout)")
	foldSeeds := fs.Bool("fold-seeds", false, "fold replicated cells (Seeds axes) into mean/stddev rows (csv or json format)")
	cacheDir := fs.String("cache-dir", "", "cache completed cells here; repeated runs skip identical scenarios")
	cacheMax := fs.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries beyond this total size (0 = unlimited; requires -cache-dir)")
	verbose := fs.Bool("verbose", false, "narrate execution on stderr: per-cell events and heap, and runner backpressure")
	list := fs.Bool("list", false, "list experiment ids and exit")
	listDefenses := fs.Bool("list-defenses", false, "list registered defense plugins and exit")
	listAttacks := fs.Bool("list-attacks", false, "list registered attack plugins and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheMax < 0 {
		return fmt.Errorf("-cache-max-bytes %d: want 0 (unlimited) or a positive size", *cacheMax)
	}
	if *cacheMax != 0 && *cacheDir == "" {
		return fmt.Errorf("-cache-max-bytes needs -cache-dir")
	}
	if *list || *listDefenses || *listAttacks {
		if *list {
			fmt.Fprintln(stdout, strings.Join(sim.ExperimentIDs(), "\n"))
		}
		// Each listing's name column is as wide as its longest name.
		tw := tabwriter.NewWriter(stdout, 0, 0, 1, ' ', 0)
		if *listDefenses {
			fmt.Fprintln(tw, "defenses:")
			for _, info := range sim.DefenseInfos() {
				tag := ""
				if info.Puzzles {
					tag = " [puzzles]"
				}
				fmt.Fprintf(tw, "  %s%s\t%s\n", info.Name, tag, info.Summary)
			}
		}
		if *listAttacks {
			fmt.Fprintln(tw, "attacks:")
			for _, info := range sim.AttackInfos() {
				fmt.Fprintf(tw, "  %s\t%s\n", info.Name, info.Summary)
			}
		}
		return tw.Flush()
	}

	opts := []sim.RunOption{sim.WithWorkers(*workers)}
	if *verbose {
		opts = append(opts, sim.WithDebug(os.Stderr))
	}
	var cache *sweep.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = sweep.OpenCache(*cacheDir, sweep.WithMaxBytes(*cacheMax)); err != nil {
			return err
		}
		opts = append(opts, sim.WithCache(cache))
	}

	switch *format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (want table, csv or json)", *format)
	}
	w := stdout
	if *out != "" {
		f, createErr := os.Create(*out)
		if createErr != nil {
			return createErr
		}
		// A failed Close can be the first sign of a short write (a full
		// disk): report it unless an earlier error already failed the run.
		defer func() {
			if closeErr := f.Close(); err == nil {
				err = closeErr
			}
		}()
		w = f
	}
	var sink sweep.Sink
	switch *format {
	case "csv":
		sink = sweep.NewCSV(w)
	case "json":
		sink = sweep.NewNDJSON(w)
	}
	if *foldSeeds {
		if sink == nil {
			return fmt.Errorf("-fold-seeds requires -format csv or json")
		}
		sink = sweep.NewReplicate(sink)
	}
	if sink != nil {
		opts = append(opts, sim.WithSinks(sink))
	}

	start := time.Now()
	ts, err := sim.RunExperiment(*exp, sim.Scale(*scale), opts...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if sink == nil {
		for _, t := range ts {
			fmt.Fprintf(w, "%s\n\n", t)
		}
		fmt.Fprintf(w, "(%s completed in %v)\n", *exp, elapsed)
	} else {
		// Keep the sink stream clean; progress goes to stderr.
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", *exp, elapsed)
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			return err
		}
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d evictions (dir %s)\n",
			cache.Hits(), cache.Misses(), cache.Evictions(), cache.Dir())
	}
	return nil
}
