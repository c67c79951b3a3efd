// Package sim is the public façade over the simulated testbed: it runs
// attack scenarios (SYN floods, connection floods, solution floods)
// against a server protected by client puzzles, SYN cookies, a SYN cache,
// or nothing, and returns each run as a sweep.Result — the standard flood
// metrics (client goodput per attack phase, effective attack rate) and
// their per-second series.
//
// Run and RunAll execute scenarios, RunSweep a factorial design declared
// as a sweep.Grid, and RunExperiment a named figure or table of §6 (see
// ExperimentIDs). All four share one executor: cells fan out across the
// work-stealing pool in sim/runner, stream to WithSinks sinks, and are
// cached under WithCache.
package sim

import (
	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// Defense selects the server protection. The empty string selects the
// default (puzzles); DefenseNone is always honoured.
type Defense = experiments.Defense

// Supported defenses. DefenseInfos lists everything in the registry,
// including plugins registered outside this package.
const (
	DefenseNone      = experiments.DefenseNone
	DefenseCookies   = experiments.DefenseCookies
	DefenseSYNCache  = experiments.DefenseSYNCache
	DefensePuzzles   = experiments.DefensePuzzles
	DefenseHybrid    = experiments.DefenseHybrid
	DefenseRateLimit = experiments.DefenseRateLimit
)

// Attack selects the botnet behaviour. The empty string selects the
// default (a connection flood).
type Attack = experiments.Attack

// Supported attacks. AttackInfos lists everything in the registry.
const (
	AttackSYNFlood      = experiments.AttackSYNFlood
	AttackConnFlood     = experiments.AttackConnFlood
	AttackSolutionFlood = experiments.AttackSolutionFlood
	AttackReplayFlood   = experiments.AttackReplayFlood
	AttackPulseFlood    = experiments.AttackPulseFlood
)

// NoBotnet as a Scenario.BotCount disables the botnet entirely.
const NoBotnet = experiments.NoBotnet

// Scenario describes one deployment under attack. It is the canonical
// config type — the same struct drives the public API, every internal
// figure/table driver, and the benchmarks. The zero value of every field
// selects the paper's §6 defaults; fields where zero is meaningful use
// explicit sentinels (NoBotnet, Workers: -1).
type Scenario = experiments.Scenario

// Run executes a scenario to completion and measures it like a RunSweep
// cell. The options apply as they do to RunSweep: WithCache skips a
// scenario already stored, and WithSinks streams the result.
func Run(sc Scenario, opts ...RunOption) (sweep.Result, error) {
	results, err := RunAll([]Scenario{sc}, opts...)
	if err != nil {
		return sweep.Result{}, err
	}
	return results[0], nil
}

// RunAll executes independent scenarios on the work-stealing runner
// (WithWorkers bounds it) and returns one result per scenario, in input
// order, duplicates included. Results are bit-for-bit identical at every
// worker count; parallelism divides wall-clock time only.
func RunAll(scs []Scenario, opts ...RunOption) ([]sweep.Result, error) {
	return experiments.RunCells(execOf(opts), scs)
}
