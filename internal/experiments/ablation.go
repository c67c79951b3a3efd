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

// §5: unlike always-on challenges, the opportunistic controller does not
// tax clients before the attack.
var opportunisticClaims = []Claim{above("peacetime-untaxed", "client_mbps_before", "opportunistic", "always-on")}

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

// §7: the server rejects the bogus solutions at little CPU cost.
var solutionFloodClaims = []Claim{
	within("rejects-bogus", "solution-flood", "solutions_rejected", 1, inf),
	within("server-cpu-low", "solution-flood", "server_cpu_during", -inf, 5),
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
// the other runs the stepped-puzzles defense and must climb towards an
// effective difficulty and decay back after the attack. The per-5 s
// controller needs a longer attack than the reduced scales give, so they
// run a 160 s timeline with a 90 s attack.
func adaptiveGrid(s Scale) sweep.Grid {
	if reduced(s) {
		s.Duration, s.AttackStart, s.AttackStop = 160*time.Second, 15*time.Second, 105*time.Second
	}
	return sweep.Grid{
		Base: s.Apply(smartBots(Scenario{Params: puzzle.Params{K: 2, M: 12, L: 32}})),
		Axes: []sweep.Axis{sweep.Variants("server",
			sweep.Point{Label: "fixed-m12"},
			sweep.Point{Label: "adaptive", Set: func(sc *Scenario) { sc.Defense = sweep.DefenseSteppedPuzzles }},
		)},
	}
}

// adaptiveClaims: the controller climbs above the m = 12 baseline under
// attack and decays after it, and once it has climbed it throttles the
// smart bots, which flood the fixed m = 12 server effectively, harder.
var adaptiveClaims = []Claim{
	{"rises-under-attack", func(_ Scale, rs []sweep.Result) error {
		m := cellMetric(rs, "adaptive", "peak_m")
		return want(m > 13, "adaptive: peak_m %.4g, want above 13", m)
	}},
	{"decays-after", func(_ Scale, rs []sweep.Result) error {
		peak, final := cellMetric(rs, "adaptive", "peak_m"), cellMetric(rs, "adaptive", "final_m")
		return want(final < peak, "adaptive: final_m %.4g, want below peak_m %.4g", final, peak)
	}},
	above("throttles-late-attack", "late_attack_cps", "fixed-m12", "adaptive"),
}

// adaptiveMetrics measures the attack's success, over the whole attack
// and over its last third (late_attack_cps, once the controller has
// climbed), and, for the adaptive server, the difficulty trace with its
// peak and final m.
func adaptiveMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	start, stop := int(run.Cfg.AttackStart/run.Cfg.Bucket), int(run.Cfg.AttackStop/run.Cfg.Bucket)
	late := windowMean(run.AttackerEstablishedRate(), stop-(stop-start)/3, stop)
	metrics := append(duringMetrics(run), sweep.Metric{Name: "late_attack_cps", Value: late})
	if run.Cfg.Defense != sweep.DefenseSteppedPuzzles {
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
