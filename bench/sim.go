package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// seedCycle is how many scenario seeds a cell workload rotates through
// (seed, seed+1, …), so a run is not tuned to one random stream.
const seedCycle = 4

// floodScenario is the paper-shaped connection-flood cell: 24 solving
// clients and 12 solving bots against puzzles at the Nash difficulty
// (k=2, m=17, the Scenario defaults), response-heavy so per-client
// traffic dominates the event count.
func floodScenario(shards int) func(seed int64) experiments.Scenario {
	return func(seed int64) experiments.Scenario {
		return experiments.Scenario{
			Label:    "bench-flood",
			Duration: 30 * time.Second, AttackStart: 5 * time.Second, AttackStop: 25 * time.Second,
			NumClients: 24, ClientRate: 20, BotCount: 12, PerBotRate: 200,
			Backlog: 512, AcceptBacklog: 512, Workers: 64, Seed: seed,
			ClientsSolve: true, BotsSolve: true, Shards: shards,
		}
	}
}

// macroScenario is a spoofed SYN flood from 100k macro-aggregated
// sources: the SourceStore/MacroFleet path instead of per-bot nodes.
func macroScenario(seed int64) experiments.Scenario {
	return experiments.Scenario{
		Label:    "bench-macro",
		Duration: 20 * time.Second, AttackStart: 2 * time.Second, AttackStop: 18 * time.Second,
		NumClients: 2, ClientRate: 4,
		Defense: experiments.DefensePuzzles, Attack: experiments.AttackSYNFlood,
		BotCount: experiments.NoBotnet, MacroSources: 100_000, PerBotRate: 0.05,
		Backlog: 512, AcceptBacklog: 128, Workers: 24, Seed: seed,
	}
}

// cellRun is what one simulated cell leaves behind.
type cellRun struct {
	run    *experiments.FloodRun
	ndjson [sha256.Size]byte
	events uint64
	wall   time.Duration
}

// runCell is the timed operation of the cell workloads: simulate,
// extract the standard metric set, encode it as NDJSON. It goes through
// no runner, cache or sharding of its own — only what sc selects.
func runCell(sc experiments.Scenario, buf *bytes.Buffer, op int, tr *tracer) (cellRun, error) {
	t := time.Now()
	cell := tr.start("cell", op, 0)
	s := tr.start("experiments.run_flood", op, cell)
	run, err := experiments.RunFlood(sc)
	tr.end(s)
	if err != nil {
		tr.end(cell)
		return cellRun{}, err
	}
	s = tr.start("experiments.extract", op, cell)
	metrics, series := experiments.StandardMetrics(run)
	tr.end(s)
	s = tr.start("sweep.ndjson_write", op, cell)
	buf.Reset()
	err = sweep.NewNDJSON(buf).Write(sweep.Result{Experiment: "bench", Scenario: run.Cfg, Metrics: metrics, Series: series})
	tr.end(s)
	tr.end(cell)
	if err != nil {
		return cellRun{}, err
	}
	out := cellRun{run: run, ndjson: sha256.Sum256(buf.Bytes()), wall: time.Since(t)}
	for _, n := range run.Net.ShardStats().Events {
		out.events += n
	}
	if out.events == 0 {
		return out, fmt.Errorf("no events fired")
	}
	for _, m := range metrics {
		if !allFinite(m.Value) {
			return out, fmt.Errorf("metric %s is not finite", m.Name)
		}
	}
	return out, nil
}

// simCells is an instance of a single-cell workload.
type simCells struct {
	scenarios []experiments.Scenario
	// refs are the NDJSON digests of each scenario run once, serially
	// (Shards=1), during set-up; every timed run must reproduce them.
	refs [][sha256.Size]byte
	buf  bytes.Buffer

	last      cellRun
	eventsSum uint64
	ops       int
}

// newSimCells runs each scenario once on the serial engine for the
// reference digests (which also warms the heap), then once as given if
// that differs.
func newSimCells(scenarios []experiments.Scenario) (*simCells, error) {
	s := &simCells{scenarios: scenarios}
	sharded := false
	for _, sc := range scenarios {
		sharded = sharded || sc.Shards > 1
		sc.Shards = 1
		ref, err := runCell(sc, &s.buf, 0, nil)
		if err != nil {
			return nil, err
		}
		s.refs = append(s.refs, ref.ndjson)
	}
	if sharded {
		if _, err := runCell(scenarios[0], &s.buf, 0, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *simCells) op(i int, tr *tracer) error {
	k := i % len(s.scenarios)
	cell, err := runCell(s.scenarios[k], &s.buf, i, tr)
	if err != nil {
		return err
	}
	s.last = cell
	s.eventsSum += cell.events
	s.ops++
	if cell.ndjson != s.refs[k] {
		return fmt.Errorf("seed %d: NDJSON differs from the serial reference run", s.scenarios[k].Seed)
	}
	return nil
}

func (s *simCells) check() error { return nil }

func (s *simCells) digest() string {
	h := sha256.New()
	for _, r := range s.refs {
		h.Write(r[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *simCells) close() error { return nil }

func (s *simCells) layers(set func(string, float64)) error {
	run := s.last.run
	if run == nil || s.ops == 0 {
		return fmt.Errorf("no completed cell")
	}
	set("netsim.events_per_op", float64(s.eventsSum)/float64(s.ops))

	if st := run.Net.ShardStats(); len(st.Events) > 1 {
		var most uint64
		for _, n := range st.Events {
			most = max(most, n)
		}
		var wait time.Duration
		for _, w := range st.BarrierWait {
			wait += w
		}
		set("netsim.shard_windows", float64(st.Windows))
		set("netsim.shard_event_max_share", float64(most)/float64(s.last.events))
		set("netsim.barrier_wait_share", float64(wait)/(float64(len(st.Events))*float64(s.last.wall)))
		set("netsim.lookahead_mean_us", float64(st.LookaheadMean)/float64(time.Microsecond))
		// Base: the same scenarios on the serial engine, run here in
		// alternation with the sharded ones so that a change in host
		// speed falls on both sides alike.
		var serial, sharded []float64
		for _, sc := range s.scenarios {
			one := sc
			one.Shards = 1
			for _, side := range []struct {
				sc    experiments.Scenario
				walls *[]float64
			}{{one, &serial}, {sc, &sharded}} {
				cell, err := runCell(side.sc, &s.buf, 0, nil)
				if err != nil {
					return err
				}
				*side.walls = append(*side.walls, cell.wall.Seconds())
			}
		}
		set("netsim.shard_speedup", median(serial)/median(sharded))
	}

	srv := run.Server.Metrics()
	set("serversim.syns_received", float64(srv.SYNsReceived))
	set("serversim.syns_dropped", float64(srv.SYNsDropped))
	set("serversim.solutions_verified", float64(srv.SolutionsVerified))
	set("serversim.requests_served", float64(srv.RequestsServed))

	var started, completed, failed uint64
	for _, c := range run.Clients {
		m := c.Metrics()
		started += m.Started
		completed += m.Completed
		failed += m.Failed
	}
	set("clientsim.started", float64(started))
	set("clientsim.completed", float64(completed))
	set("clientsim.failed", float64(failed))

	switch {
	case run.Macro != nil:
		set("attacksim.packets_sent", run.Macro.TotalSent(0, run.Cfg.Duration))
	case run.Botnet != nil:
		set("attacksim.packets_sent", run.Botnet.TotalSent(0, run.Cfg.Duration))
	}
	return nil
}

// cellWorkload builds a single-cell workload over seedCycle seeds.
func cellWorkload(name string, scenario func(seed int64) experiments.Scenario) workload {
	return workload{
		name:   name,
		probes: []probeGroup{probeSim},
		setup: func(e env) (instance, error) {
			seeds := int64(seedCycle)
			if e.quick {
				seeds = 1
			}
			var scs []experiments.Scenario
			for i := int64(0); i < seeds; i++ {
				sc := scenario(e.seed + i)
				if e.quick {
					sc.Duration, sc.AttackStart, sc.AttackStop = sc.Duration/5, sc.AttackStart/5, sc.AttackStop/5
				}
				scs = append(scs, sc)
			}
			return newSimCells(scs)
		},
	}
}
