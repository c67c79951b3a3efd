package experiments

import (
	"math"
	"strings"

	"github.com/tcppuzzles/tcppuzzles/attack"
	"github.com/tcppuzzles/tcppuzzles/defense"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// armsRaceGrid declares the in-run arms race: the adaptive plugins play
// against static opponents and against each other. Clients and bots both
// solve, so raising the difficulty genuinely costs the attacker CPU and
// the replicator has a real trade-off to learn. The cells report
// convergence against the static game predictions: the defender's
// deployed work level at the end of the attack window against
// game.FiniteGame's Stackelberg optimum for the true attack rate
// (defender_gap_bits), and the attacker's final budget concentration
// against the replicator fixed point for a dominant arm (attacker_gap).
func armsRaceGrid(s Scale) sweep.Grid {
	return sweep.Grid{
		Base: s.Apply(Scenario{ClientsSolve: true, BotsSolve: true}),
		Axes: []sweep.Axis{sweep.Variants("cell",
			sweep.Point{Label: "adaptive-defense", Set: func(sc *Scenario) {
				sc.Defense = DefenseAdaptivePuzzles
				sc.Attack = AttackConnFlood
			}},
			sweep.Point{Label: "adaptive-attack", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackAdaptiveFlood
			}},
			sweep.Point{Label: "adaptive-both", Set: func(sc *Scenario) {
				sc.Defense = DefenseAdaptivePuzzles
				sc.Attack = AttackAdaptiveFlood
			}},
		)},
	}
}

// armsRaceMetrics extracts the adaptive trajectories from a live run. The
// series schema (see docs/EXPERIMENTS.md): difficulty_m and
// attack_estimate per bucket for adaptive defenders; share_<arm> per
// replicator epoch (averaged across bots) for adaptive attackers.
func armsRaceMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	metrics := duringMetrics(run)
	var series []sweep.Series

	// True aggregate attack rate of the cell — what the defender's
	// estimator is chasing and the prediction is computed from.
	trueRate := float64(run.Cfg.BotCount) * run.Cfg.PerBotRate
	if run.Cfg.MacroSources > 0 {
		trueRate = float64(run.Cfg.MacroSources) * run.Cfg.PerBotRate
	}

	if ap, ok := run.Server.Defense().(*defense.AdaptivePuzzles); ok {
		series = append(series, sweep.Series{Name: "difficulty_m", Values: difficultyTrace(run)})

		est := make([]float64, int(run.Cfg.Duration/run.Cfg.Bucket))
		for _, s := range ap.Trace() {
			if i := int(s.At / run.Cfg.Bucket); i >= 0 && i < len(est) {
				est[i] = s.AttackRate
			}
		}
		series = append(series, sweep.Series{Name: "attack_estimate", Values: est})

		if sample, ok := ap.TraceAt(run.Cfg.AttackStop); ok {
			lFinal := sample.Params.ExpectedSolveHashes()
			metrics = append(metrics,
				sweep.Metric{Name: "l_final", Value: lFinal},
				sweep.Metric{Name: "attack_rate_estimate", Value: sample.AttackRate},
			)
			// Emitted only when the prediction computes: the cache stores
			// metrics as JSON, which cannot carry an Inf sentinel.
			if lPred, err := defense.AdaptiveGame(trueRate).OptimalDifficulty(); err == nil {
				metrics = append(metrics,
					sweep.Metric{Name: "l_pred", Value: lPred},
					sweep.Metric{Name: "defender_gap_bits", Value: math.Abs(math.Log2(lFinal / lPred))},
				)
			}
		}
	}

	var strategies []attack.Strategy
	if run.Macro != nil {
		strategies = run.Macro.Strategies()
	}
	var traces [][][]float64
	var names []sweep.Attack
	for _, s := range strategies {
		if af, ok := s.(*attack.AdaptiveFlood); ok {
			traces = append(traces, af.ShareTrace())
			if names == nil {
				names = af.ArmNames()
			}
		}
	}
	if len(traces) > 0 {
		epochs := len(traces[0])
		for _, tr := range traces {
			epochs = min(epochs, len(tr))
		}
		mean := make([][]float64, len(names))
		for a := range names {
			mean[a] = make([]float64, epochs)
			for e := 0; e < epochs; e++ {
				for _, tr := range traces {
					mean[a][e] += tr[e][a] / float64(len(traces))
				}
			}
			series = append(series, sweep.Series{
				Name: "share_" + string(names[a]), Values: mean[a],
			})
		}
		if epochs > 0 {
			top := 0.0
			for a := range names {
				top = max(top, mean[a][epochs-1])
			}
			fixedPoint := 1 - float64(len(names)-1)*attack.AdaptiveExplorationFloor
			metrics = append(metrics,
				sweep.Metric{Name: "attacker_top_share", Value: top},
				sweep.Metric{Name: "attacker_gap", Value: math.Abs(fixedPoint - top)},
			)
		}
	}
	return metrics, series
}

// armsRaceTable renders the arms race: standard during-attack
// measurements, the convergence distances, and sparkline trajectories
// (deployed difficulty, winning arm's budget share).
var armsRaceTable = perCell("Adaptive arms race — in-run convergence to the game equilibria",
	[]string{"cell", "att-cps", "cli-Mbps", "def-gap-bits", "atk-gap", "m-trace", "top-share-trace"},
	func(r sweep.Result) []string {
		mTrace, shareTrace := "", ""
		if m := r.SeriesValues("difficulty_m"); m != nil {
			mTrace = sparkline(downsample(m, 30))
		}
		var topShare []float64
		for _, s := range r.Series {
			if strings.HasPrefix(s.Name, "share_") {
				if topShare == nil {
					topShare = make([]float64, len(s.Values))
				}
				for i, v := range s.Values {
					if i < len(topShare) && v > topShare[i] {
						topShare[i] = v
					}
				}
			}
		}
		if topShare != nil {
			shareTrace = sparkline(downsample(topShare, 30))
		}
		return []string{
			r.Scenario.Label,
			f2(r.Metric("attacker_established_during")),
			f2(r.Metric("client_mbps_during")),
			optMetric(r, "defender_gap_bits"),
			optMetric(r, "attacker_gap"),
			mTrace,
			shareTrace,
		}
	})

// optMetric renders a metric that only adaptive cells carry.
func optMetric(res sweep.Result, name string) string {
	if v, ok := res.Lookup(name); ok {
		return f2(v)
	}
	return "-"
}
