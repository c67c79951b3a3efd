// Package sim is the public façade over the simulated testbed: it builds
// and runs attack scenarios (SYN floods, connection floods, solution
// floods) against a server protected by client puzzles, SYN cookies, a SYN
// cache, or nothing, and returns materialised measurement series.
//
// Scenario is the one canonical configuration type (defined in the sweep
// package) shared with the internal experiment drivers, and grids of
// scenarios fan out across the work-stealing pool in sim/runner (see
// RunAll). The paper's evaluation is exposed as named experiments (see
// ExperimentIDs and RunExperiment) so a downstream user can regenerate
// every figure and table from §6 with one call, and RunSweep executes
// arbitrary factorial designs declared as sweep.Grid literals — with
// streaming CSV/NDJSON sinks (WithSinks) and scenario-hash result
// caching (WithCache).
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

// Result holds materialised measurements from a completed scenario. All
// series are per-second.
type Result struct {
	// ClientMbps is the mean per-client goodput.
	ClientMbps []float64
	// ServerMbps is the server's outgoing throughput.
	ServerMbps []float64
	// ServerCPUPct, ClientCPUPct, AttackerCPUPct are utilisation series.
	ServerCPUPct   []float64
	ClientCPUPct   []float64
	AttackerCPUPct []float64
	// ListenQueue and AcceptQueue are occupancy series.
	ListenQueue []float64
	AcceptQueue []float64
	// AttackerEstablishedPerSec is the effective attack rate.
	AttackerEstablishedPerSec []float64
	// AttackerSentPerSec is the measured (post-CPU-limit) attack rate.
	AttackerSentPerSec []float64
	// Summary numbers over the attack phases.
	ClientMbpsBefore, ClientMbpsDuring, ClientMbpsAfter float64
	EffectiveAttackRate                                 float64
}

// Run executes a scenario to completion.
func Run(sc Scenario) (*Result, error) {
	run, err := experiments.RunFlood(sc)
	if err != nil {
		return nil, err
	}
	return materialise(run), nil
}

// RunAll executes a grid of independent scenarios on the work-stealing
// runner and returns the results in grid order. workers <= 0 selects
// GOMAXPROCS. Results are bit-for-bit identical at every worker count;
// parallelism divides wall-clock time only.
func RunAll(workers int, scs []Scenario) ([]*Result, error) {
	runs, err := experiments.RunScenarios(workers, scs)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(runs))
	for i, run := range runs {
		results[i] = materialise(run)
	}
	return results, nil
}

// materialise reads a run's series, and its summary numbers from the
// standard metric set, so Run reports exactly what RunSweep would.
func materialise(run *experiments.FloodRun) *Result {
	metrics, series := experiments.StandardMetrics(run)
	std := sweep.Result{Metrics: metrics, Series: series}
	res := &Result{
		ClientMbps:                std.SeriesValues("client_mbps"),
		ServerMbps:                std.SeriesValues("server_mbps"),
		ServerCPUPct:              std.SeriesValues("server_cpu_pct"),
		ClientCPUPct:              run.ClientCPU(),
		AttackerCPUPct:            run.AttackerCPU(),
		AttackerEstablishedPerSec: std.SeriesValues("attacker_established_cps"),
		AttackerSentPerSec:        run.MeasuredAttackRate(),
		ClientMbpsBefore:          std.Metric("client_mbps_before"),
		ClientMbpsDuring:          std.Metric("client_mbps_during"),
		ClientMbpsAfter:           std.Metric("client_mbps_after"),
		EffectiveAttackRate:       std.Metric("attacker_established_cps"),
	}
	res.ListenQueue, res.AcceptQueue = run.QueueSizes()
	return res
}
