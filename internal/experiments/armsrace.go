package experiments

import (
	"math"
	"strings"

	"github.com/tcppuzzles/tcppuzzles/attack"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// armsRaceGrid declares the in-run arms race: adaptive-flood bots, whose
// replicator dynamics move each bot's budget across the basic floods,
// against the fixed Nash puzzles. Clients and bots both solve, so the
// difficulty genuinely costs the attacker CPU and the replicator has a
// real trade-off to learn. The cell reports the attacker's final budget
// concentration against the replicator fixed point for a dominant arm
// (attacker_gap).
func armsRaceGrid(s Scale) sweep.Grid {
	return sweep.Grid{
		Base: s.Apply(Scenario{ClientsSolve: true, BotsSolve: true}),
		Axes: []sweep.Axis{sweep.Variants("cell",
			sweep.Point{Label: "adaptive-attack", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Attack = AttackAdaptiveFlood
			}},
		)},
	}
}

// armsRaceClaims: the replicator concentrates the botnet's budget on one
// arm, to within 0.5 of its fixed point.
var armsRaceClaims = []Claim{
	within("attacker-converges", "adaptive-attack", "attacker_gap", 0, 0.5),
}

// armsRaceMetrics extracts the attacker's trajectories from a live run.
// The series schema (see docs/EXPERIMENTS.md): share_<arm> per replicator
// epoch, averaged across bots.
func armsRaceMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	metrics := duringMetrics(run)
	var series []sweep.Series

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
// measurements, the attacker's final top share and its distance from the
// fixed point, and a sparkline of the winning arm's budget share.
var armsRaceTable = perCell("Arms race — adaptive attacker vs the Nash puzzles (replicator convergence)",
	[]string{"cell", "att-cps", "cli-Mbps", "top-share", "atk-gap", "top-share-trace"},
	func(r sweep.Result) []string {
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
		return []string{
			r.Scenario.Label,
			f2(r.Metric("attacker_established_during")),
			f2(r.Metric("client_mbps_during")),
			f2(r.Metric("attacker_top_share")),
			f2(r.Metric("attacker_gap")),
			sparkline(downsample(topShare, 30)),
		}
	})
