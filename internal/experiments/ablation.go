package experiments

import (
	"fmt"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// opportunisticGrid declares the §5 controller ablation pair during a
// connection flood: the opportunistic controller lets clients connect
// instantly whenever queue slots exist (the Fig. 8 throughput spikes),
// while always-on challenges tax every connection even in peacetime.
func opportunisticGrid(s Scale) sweep.Grid {
	return sweep.Grid{
		Base: s.Apply(Scenario{
			Defense:      DefensePuzzles,
			Params:       nashParams,
			Attack:       AttackConnFlood,
			ClientsSolve: true,
			BotsSolve:    true,
		}),
		Axes: []sweep.Axis{sweep.Variants("controller",
			sweep.Point{Label: "opportunistic"},
			sweep.Point{Label: "always-on", Set: func(sc *Scenario) { sc.AlwaysChallenge = true }},
		)},
	}
}

func opportunisticMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	cli := run.ClientThroughputMbps()
	return phaseMetrics(run, "client_mbps", cli), []sweep.Series{{Name: "client_mbps", Values: cli}}
}

// opportunisticTable contrasts peacetime and wartime client throughput.
var opportunisticTable = perCell("Ablation — opportunistic vs always-on challenges",
	[]string{"controller", "cli-before", "cli-during", "cli-after"},
	func(r sweep.Result) []string {
		return append([]string{r.Scenario.Label},
			metricCells(r, f2, "client_mbps_before", "client_mbps_during", "client_mbps_after")...)
	})

// solutionFloodGrid declares the §7 "solution floods" cell: a barrage of
// bogus solutions against a puzzle-protected server.
func solutionFloodGrid(s Scale) sweep.Grid {
	return sweep.Grid{Base: s.Apply(Scenario{}), Axes: []sweep.Axis{sweep.Variants("attack",
		sweep.Point{Label: "solution-flood", Set: func(sc *Scenario) {
			sc.Defense = DefensePuzzles
			sc.Params = nashParams
			sc.Attack = AttackSolutionFlood
			sc.ClientsSolve = true
		}},
	)}}
}

// solutionFloodMetrics measures the verification load the bogus
// solutions induce.
func solutionFloodMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	cpu := run.ServerCPU()
	m := run.Server.Metrics()
	return []sweep.Metric{
			{Name: "server_cpu_during", Value: phaseMean(run, cpu, phaseDuring)},
			{Name: "server_cpu_peak", Value: peak(cpu)},
			{Name: "solutions_rejected", Value: float64(m.SolutionInvalid + m.SolutionMalformed)},
			{Name: "client_mbps_during", Value: phaseMean(run, run.ClientThroughputMbps(), phaseDuring)},
		},
		[]sweep.Series{{Name: "server_cpu_pct", Values: cpu}}
}

// solutionFloodTable reports server CPU and rejection counters.
func solutionFloodTable(results []sweep.Result) sweep.Table {
	res := results[0]
	return sweep.Table{
		Title:  "Ablation — solution flood (bogus-verification load, §7)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"server CPU during (%)", f2(res.Metric("server_cpu_during"))},
			{"server CPU peak (%)", f2(res.Metric("server_cpu_peak"))},
			{"solutions rejected", fmt.Sprintf("%d", int64(res.Metric("solutions_rejected")))},
			{"client Mbps during", f2(res.Metric("client_mbps_during"))},
		},
	}
}

// adaptiveGrid declares the closed-loop controller ablation: both
// servers start at an under-provisioned difficulty (m = 12, which §6.3
// shows is too easy to throttle attackers) against smart solving bots —
// the attacker model under which an under-provisioned fixed difficulty
// actually loses (see Fig. 12). One server holds the difficulty fixed;
// the other adapts and must climb towards an effective difficulty and
// decay back after the attack. The per-5 s controller needs a longer
// attack than the reduced scales give, so they run a 160 s timeline with
// a 90 s attack.
func adaptiveGrid(s Scale) sweep.Grid {
	if reduced(s) {
		s.Duration, s.AttackStart, s.AttackStop = 160*time.Second, 15*time.Second, 105*time.Second
	}
	return sweep.Grid{
		Base: s.Apply(smartBots(Scenario{Params: puzzle.Params{K: 2, M: 12, L: 32}})),
		Axes: []sweep.Axis{sweep.Variants("server",
			sweep.Point{Label: "fixed-m12"},
			sweep.Point{Label: "adaptive", Set: func(sc *Scenario) { sc.AdaptiveDifficulty = true }},
		)},
	}
}

// adaptiveMetrics measures the attack's success and, for the adaptive
// server, the difficulty trace with its peak and final m.
func adaptiveMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	metrics := duringMetrics(run)
	if !run.Cfg.AdaptiveDifficulty {
		return metrics, nil
	}
	trace := difficultyTrace(run)
	var final float64
	if len(trace) > 0 {
		final = trace[len(trace)-1]
	}
	return append(metrics, sweep.Metric{Name: "peak_m", Value: peak(trace)}, sweep.Metric{Name: "final_m", Value: final}),
		[]sweep.Series{{Name: "difficulty_m", Values: trace}}
}

// adaptiveTable renders the comparison, with the adaptive server's peak
// and final difficulty.
func adaptiveTable(results []sweep.Result) sweep.Table {
	t := perCell("Ablation — adaptive difficulty (closed loop, §7)",
		[]string{"server", "att-cps-during", "cli-Mbps-during", "m-trace"},
		func(r sweep.Result) []string {
			trace := ""
			if m := r.SeriesValues("difficulty_m"); m != nil {
				trace = sparkline(downsample(m, 40))
			}
			return []string{r.Scenario.Label, f2(r.Metric("attacker_established_during")), f2(r.Metric("client_mbps_during")), trace}
		})(results)
	adaptive := results[1]
	t.Rows = append(t.Rows, []string{"peak m", f1(adaptive.Metric("peak_m")), "final m", f1(adaptive.Metric("final_m"))})
	return t
}
