package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/sim"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// figGrid is a figure-shaped factorial design: defenses × attacks ×
// difficulties × seeds, each cell a short 8-client, 6-bot deployment.
func figGrid(seed int64, quick bool) sweep.Grid {
	seeds := []int64{seed, seed + 1, seed + 2, seed + 3}
	ms := []uint8{12, 17}
	if quick {
		seeds, ms = seeds[:1], ms[:1]
	}
	return sweep.Grid{
		Base: experiments.Scenario{
			Label:    "bench-grid",
			Duration: 20 * time.Second, AttackStart: 5 * time.Second, AttackStop: 15 * time.Second,
			NumClients: 8, ClientRate: 10, BotCount: 6, PerBotRate: 100,
			Backlog: 256, AcceptBacklog: 256, Workers: 48,
			ClientsSolve: true, BotsSolve: true,
		},
		Axes: []sweep.Axis{
			sweep.Defenses(sweep.DefenseNone, sweep.DefenseCookies, sweep.DefensePuzzles),
			sweep.Attacks(sweep.AttackSYNFlood, sweep.AttackConnFlood),
			sweep.Ms(ms...),
			sweep.Seeds(seeds...),
		},
	}
}

// spanSink wraps a real sink so each Write is a span of the current pass.
type spanSink struct {
	inner      sweep.Sink
	name       string
	tr         *tracer
	op, parent int
}

func (s *spanSink) Write(r sweep.Result) error {
	id := s.tr.start(s.name, s.op, s.parent)
	err := s.inner.Write(r)
	s.tr.end(id)
	return err
}

func (s *spanSink) Flush() error { return s.inner.Flush() }

// passResult is what one pass over the grid leaves behind.
type passResult struct {
	results      []sweep.Result
	sinks        [sha256.Size]byte // digest of the NDJSON bytes then the CSV bytes
	hits, misses int64
	wall         time.Duration
}

// gridRun is an instance of a grid workload. A cold pass runs the grid
// through public sim.RunSweep into a fresh cache directory (every cell a
// miss, simulated and stored); a warm pass runs it over a populated
// directory (every cell a hit, nothing simulated).
type gridRun struct {
	grid    sweep.Grid
	cells   int
	workers int
	scratch string
	warm    bool

	ref     [sha256.Size]byte // sink digest of the reference cold pass
	warmDir string            // warm: the populated cache directory
	cache   *sweep.Cache      // warm: one handle, so hits are deltas
	ndjson  bytes.Buffer
	csv     bytes.Buffer
	last    passResult
}

// pass runs the grid once over cache and both sinks.
func (g *gridRun) pass(cache *sweep.Cache, workers, op int, tr *tracer) (passResult, error) {
	t := time.Now()
	root := tr.start("pass", op, 0)
	g.ndjson.Reset()
	g.csv.Reset()
	var nd, cs sweep.Sink = sweep.NewNDJSON(&g.ndjson), sweep.NewCSV(&g.csv)
	if tr != nil {
		nd = &spanSink{inner: nd, name: "sweep.ndjson_write", tr: tr, op: op, parent: root}
		cs = &spanSink{inner: cs, name: "sweep.csv_write", tr: tr, op: op, parent: root}
	}
	hits, misses := cache.Hits(), cache.Misses()
	results, err := sim.RunSweep(g.grid, sim.WithWorkers(workers), sim.WithCache(cache), sim.WithSinks(nd, cs))
	if err == nil {
		err = nd.Flush()
	}
	if err == nil {
		err = cs.Flush()
	}
	tr.end(root)
	if err != nil {
		return passResult{}, err
	}
	h := sha256.New()
	h.Write(g.ndjson.Bytes())
	h.Write(g.csv.Bytes())
	out := passResult{results: results, hits: cache.Hits() - hits, misses: cache.Misses() - misses, wall: time.Since(t)}
	h.Sum(out.sinks[:0])
	return out, nil
}

// coldPass runs the grid into a new, empty cache directory and removes
// it afterwards unless keep is set.
func (g *gridRun) coldPass(workers, op int, tr *tracer, keep bool) (passResult, string, error) {
	dir, err := os.MkdirTemp(g.scratch, "cache-")
	if err != nil {
		return passResult{}, "", err
	}
	var res passResult
	cache, err := sweep.OpenCache(dir)
	if err == nil {
		res, err = g.pass(cache, workers, op, tr)
	}
	if err == nil && (res.misses != int64(g.cells) || res.hits != 0) {
		err = fmt.Errorf("cold pass: %d misses, %d hits, want %d and 0", res.misses, res.hits, g.cells)
	}
	if err != nil || !keep {
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		dir = ""
	}
	return res, dir, err
}

func newGridRun(e env, warm bool) (*gridRun, error) {
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	grid := figGrid(e.seed, e.quick)
	g := &gridRun{grid: grid, cells: len(grid.Expand(nil)), workers: e.workers, scratch: e.scratch, warm: warm}
	// The reference pass: cold, and kept as the populated directory of
	// the warm workload.
	ref, dir, err := g.coldPass(g.workers, 0, nil, warm)
	if err != nil {
		return nil, err
	}
	g.ref = ref.sinks
	if warm {
		g.warmDir = dir
		if g.cache, err = sweep.OpenCache(dir); err != nil {
			return nil, err
		}
		for i := 0; i < 3; i++ { // untimed warm-up passes
			if err := g.op(0, nil); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

func (g *gridRun) op(i int, tr *tracer) error {
	var res passResult
	var err error
	if g.warm {
		res, err = g.pass(g.cache, g.workers, i, tr)
		if err == nil && (res.hits != int64(g.cells) || res.misses != 0) {
			err = fmt.Errorf("warm pass: %d hits, %d misses, want %d and 0", res.hits, res.misses, g.cells)
		}
	} else {
		res, _, err = g.coldPass(g.workers, i, tr, false)
	}
	if err != nil {
		return err
	}
	g.last = res
	if res.sinks != g.ref {
		return fmt.Errorf("sink bytes differ from the reference cold pass")
	}
	return nil
}

func (g *gridRun) check() error { return nil }

func (g *gridRun) digest() string { return hex.EncodeToString(g.ref[:]) }

func (g *gridRun) close() error {
	if g.warmDir == "" {
		return nil
	}
	return os.RemoveAll(g.warmDir)
}

func (g *gridRun) layers(set func(string, float64)) error {
	if len(g.last.results) == 0 {
		return fmt.Errorf("no completed pass")
	}
	set("sweep.cache_hits", float64(g.last.hits))
	set("sweep.cache_misses", float64(g.last.misses))
	if exec := g.last.results[0].Exec; exec != nil {
		set("runner.steals", float64(exec.Steals))
		set("runner.mean_queue_depth", exec.MeanQueueDepth)
	}
	if !g.warm {
		// Base: one cold pass of the same grid at WithWorkers(1), taken
		// here beside one at full width so both see the same host speed.
		serial, _, err := g.coldPass(1, 0, nil, false)
		if err != nil {
			return err
		}
		wide, _, err := g.coldPass(g.workers, 0, nil, false)
		if err != nil {
			return err
		}
		set("runner.speedup", float64(serial.wall)/float64(wide.wall))
	}
	return nil
}

func gridWorkload(name string, warm bool) workload {
	probes := []probeGroup{probeSim, probeSweep}
	if warm {
		probes = []probeGroup{probeSweep}
	}
	return workload{
		name:   name,
		probes: probes,
		setup:  func(e env) (instance, error) { return newGridRun(e, warm) },
	}
}
