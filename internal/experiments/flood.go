package experiments

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/stats"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// The flood experiments of §6 (Figs. 7–15): every grid applies the scale
// to its base scenario, and every cell is a RunFlood measured by one of
// the extractors below.

// nashFlood is the canonical §6 attack cell: a connection flood of
// solving bots against solving clients at the Nash difficulty.
func nashFlood(label string) sweep.Point {
	return sweep.Point{Label: label, Set: func(sc *Scenario) {
		sc.Defense = DefensePuzzles
		sc.Params = nashParams
		sc.Attack = AttackConnFlood
		sc.ClientsSolve = true
		sc.BotsSolve = true
	}}
}

// fig7Grid declares the SYN-flood defense comparison of Fig. 7: no
// defense, SYN cookies, puzzles at (1,8), and puzzles at the Nash
// difficulty (2,17), all against patched clients.
func fig7Grid(s Scale) sweep.Grid {
	return sweep.Grid{
		Base: s.Apply(Scenario{Attack: AttackSYNFlood, ClientsSolve: true}),
		Axes: []sweep.Axis{sweep.Variants("defense",
			sweep.Point{Label: "nodefense", Set: func(sc *Scenario) { sc.Defense = DefenseNone }},
			sweep.Point{Label: "cookies", Set: func(sc *Scenario) { sc.Defense = DefenseCookies }},
			sweep.Point{Label: "challenges-m8", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Params = puzzle.Params{K: 1, M: 8, L: 32}
			}},
			sweep.Point{Label: "challenges-m17", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Params = nashParams
			}},
		)},
	}
}

// Fig. 7: the SYN flood denies service; cookies and easy puzzles absorb it.
var fig7Claims = []Claim{
	goodput("nodefense-denied", "nodefense", 0, 0.2),
	goodput("cookies-served", "cookies", 0.7, inf),
	goodput("challenges-m8-served", "challenges-m8", 0.6, inf),
}

// goodput claims the cell serves clients before the attack, and keeps
// between lo and hi times that goodput during it.
func goodput(name, label string, lo, hi float64) Claim {
	return Claim{name, func(_ Scale, rs []sweep.Result) error {
		before, during := cellMetric(rs, label, "client_mbps_before"), cellMetric(rs, label, "client_mbps_during")
		return want(before > 0 && during >= lo*before && during <= hi*before,
			"%s: client Mbps %.3f during, %.3f before; want before > 0 and during in [%g, %g] × before", label, during, before, lo, hi)
	}}
}

// fig8Grid declares the connection-flood comparison of Fig. 8: no
// defense, SYN cookies, and puzzles at the Nash difficulty. The bots run
// patched kernels (they solve when challenged), matching §6's deployment.
func fig8Grid(s Scale) sweep.Grid {
	return sweep.Grid{
		Base: s.Apply(Scenario{Attack: AttackConnFlood, ClientsSolve: true, BotsSolve: true}),
		Axes: []sweep.Axis{sweep.Variants("defense",
			sweep.Point{Label: "nodefense", Set: func(sc *Scenario) { sc.Defense = DefenseNone }},
			sweep.Point{Label: "cookies", Set: func(sc *Scenario) { sc.Defense = DefenseCookies }},
			sweep.Point{Label: "challenges-m17", Set: func(sc *Scenario) {
				sc.Defense = DefensePuzzles
				sc.Params = nashParams
			}},
		)},
	}
}

// Fig. 8: the connection flood denies service, cookies or not; puzzles
// serve (beating cookies on the seed mean: TestFig8ConnFloodOutcomes).
var fig8Claims = []Claim{
	goodput("nodefense-denied", "nodefense", 0, 0.3),
	goodput("cookies-denied", "cookies", 0, 0.3),
	goodput("challenges-m17-served", "challenges-m17", 0.15, inf),
}

// floodComparisonMetrics measures client/server throughput in the three
// attack phases — the record behind Figs. 7 and 8.
func floodComparisonMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	cli, srv := run.ClientThroughputMbps(), run.ServerThroughputMbps()
	return append(phaseMetrics(run, "client_mbps", cli), phaseMetrics(run, "server_mbps", srv)...),
		[]sweep.Series{{Name: "client_mbps", Values: cli}, {Name: "server_mbps", Values: srv}}
}

// floodComparisonTable renders client/server throughput per defense in
// the three phases (before/during/after attack) plus a sparkline of the
// server series.
func floodComparisonTable(title string) func([]sweep.Result) sweep.Table {
	return perCell(title, []string{
		"defense", "cli-before", "cli-during", "cli-after",
		"srv-before", "srv-during", "srv-after", "server-series",
	}, func(r sweep.Result) []string {
		row := append([]string{r.Scenario.Label}, metricCells(r, f2,
			"client_mbps_before", "client_mbps_during", "client_mbps_after",
			"server_mbps_before", "server_mbps_during", "server_mbps_after")...)
		return append(row, sparkline(downsample(r.SeriesValues("server_mbps"), 40)))
	})
}

// fig9Grid declares the single Nash-difficulty connection-flood cell
// whose CPU profile Fig. 9 reports.
func fig9Grid(s Scale) sweep.Grid {
	return sweep.Grid{Base: s.Apply(Scenario{}), Axes: []sweep.Axis{sweep.Variants("defense", nashFlood("challenges-m17"))}}
}

// Fig. 9 and §6.2: the server verifies cheaply; attackers, and clients only
// under attack, solve (docs/EXPERIMENTS.md "Known modelling deviations").
var fig9Claims = []Claim{
	within("server-cpu-low", "challenges-m17", "server_cpu_pct_during", -inf, 5),
	within("attackers-solve", "challenges-m17", "attacker_cpu_pct_during", 60, inf),
	within("attackers-idle-before", "challenges-m17", "attacker_cpu_pct_before", -inf, 1),
	within("clients-solve-under-attack", "challenges-m17", "client_cpu_pct_during", math.SmallestNonzeroFloat64, inf),
	within("clients-idle-before", "challenges-m17", "client_cpu_pct_before", -inf, 1),
}

// fig9Roles are the CPU series of Fig. 9, by table label.
var fig9Roles = []struct{ label, name string }{
	{"client", "client_cpu_pct"},
	{"server", "server_cpu_pct"},
	{"attacker", "attacker_cpu_pct"},
}

// fig9Metrics measures CPU utilisation at clients, server and attackers:
// phase means, peak and the per-bucket series per role.
func fig9Metrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	var metrics []sweep.Metric
	var series []sweep.Series
	for i, values := range [][]float64{run.ClientCPU(), run.ServerCPU(), run.AttackerCPU()} {
		name := fig9Roles[i].name
		metrics = append(append(metrics, phaseMetrics(run, name, values)...),
			sweep.Metric{Name: name + "_peak", Value: peak(values)})
		series = append(series, sweep.Series{Name: name, Values: values})
	}
	return metrics, series
}

// fig9Table reports phase means and peaks of %CPU per role.
func fig9Table(results []sweep.Result) sweep.Table {
	t := sweep.Table{
		Title:  "Fig 9 — %CPU during connection flood (Nash difficulty)",
		Header: []string{"role", "before", "during", "after", "peak", "series"},
	}
	res := results[0]
	for _, role := range fig9Roles {
		n := role.name
		row := append([]string{role.label}, metricCells(res, f1, n+"_before", n+"_during", n+"_after", n+"_peak")...)
		t.Rows = append(t.Rows, append(row, sparkline(downsample(res.SeriesValues(n), 40))))
	}
	return t
}

// fig10Grid declares the scenario pair of Figs. 10–11: puzzles vs cookies
// under the same connection flood.
func fig10Grid(s Scale) sweep.Grid {
	return sweep.Grid{Base: s.Apply(Scenario{}), Axes: []sweep.Axis{sweep.Variants("defense",
		nashFlood("challenges"),
		sweep.Point{Label: "cookies", Set: func(sc *Scenario) {
			sc.Defense = DefenseCookies
			sc.Attack = AttackConnFlood
			sc.ClientsSolve = true
			sc.BotsSolve = true
		}},
	)}}
}

// queueAndRateMetrics measures both the queue occupancy of Fig. 10 and
// the effective attack rate of Fig. 11, so the two figures share one
// extraction.
func queueAndRateMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	listen, accept := run.QueueSizes()
	estab := run.AttackerEstablishedRate()
	metrics := []sweep.Metric{
		{Name: "listen_queue_during", Value: phaseMean(run, listen, phaseDuring)},
		{Name: "listen_queue_peak", Value: peak(listen)},
		{Name: "accept_queue_during", Value: phaseMean(run, accept, phaseDuring)},
		{Name: "accept_queue_peak", Value: peak(accept)},
		{Name: "attacker_established_during", Value: phaseMean(run, estab, phaseDuring)},
	}
	series := []sweep.Series{
		{Name: "listen_queue", Values: listen},
		{Name: "accept_queue", Values: accept},
		{Name: "attacker_established_cps", Values: estab},
	}
	return metrics, series
}

// Fig. 10: puzzles drain the accept queue cookies leave full; at reduced
// scales the drain takes part of the window, so the bound is a separation.
var fig10Claims = []Claim{{"puzzles-drain-accept-queue", func(_ Scale, rs []sweep.Result) error {
	pz, ck := cellMetric(rs, "challenges", "accept_queue_during"), cellMetric(rs, "cookies", "accept_queue_during")
	return want(pz <= 0.6*ck, "accept queue %.1f during under puzzles, want ≤ 0.6 × cookies' %.1f", pz, ck)
}}}

// fig10Table reports listen/accept queue occupancy during the attack.
func fig10Table(results []sweep.Result) sweep.Table {
	t := sweep.Table{
		Title:  "Fig 10 — queue occupancy during connection flood",
		Header: []string{"defense", "queue", "during-mean", "peak", "series"},
	}
	for _, res := range results {
		for _, q := range []string{"listen", "accept"} {
			row := append([]string{res.Scenario.Label, q}, metricCells(res, f1, q+"_queue_during", q+"_queue_peak")...)
			t.Rows = append(t.Rows, append(row, sparkline(downsample(res.SeriesValues(q+"_queue"), 40))))
		}
	}
	return t
}

// fig11Table reports the botnet's effective (completed-connection) rate
// during the attack under puzzles vs cookies, and the cookies/puzzles
// reduction factor — the paper reports 225/4 ≈ 37×.
func fig11Table(results []sweep.Result) sweep.Table {
	t := perCell("Fig 11 — effective attack rate (completed connections/s)",
		[]string{"defense", "mean-during", "series"},
		func(r sweep.Result) []string {
			return []string{
				r.Scenario.Label,
				f2(r.Metric("attacker_established_during")),
				sparkline(downsample(r.SeriesValues("attacker_established_cps"), 40)),
			}
		})(results)
	var factor float64
	if p := results[0].Metric("attacker_established_during"); p > 0 {
		factor = results[1].Metric("attacker_established_during") / p
	}
	t.Rows = append(t.Rows, []string{"reduction", fmt.Sprintf("%.1fx", factor), ""})
	return t
}

// Fig. 11: puzzles cut the botnet's effective rate; the paper reports
// 37×, and reduced scales compress the factor.
var fig11Claims = []Claim{{"rate-reduction", func(_ Scale, rs []sweep.Result) error {
	ck, pz := cellMetric(rs, "cookies", "attacker_established_during"), cellMetric(rs, "challenges", "attacker_established_during")
	return want(ck/pz >= 3, "cookies/puzzles effective attack rate %.2f/%.2f = %.2f×, want ≥ 3×", ck, pz, ck/pz)
}}}

// smartBots is the strongest attacker of Figs. 12–14 and the adaptive
// ablation: a connection flood of solving bots that bound their solve
// backlog, so solutions stay fresh. A greedy flooder's solutions go stale
// at any m, which would make every difficulty look equally effective.
func smartBots(sc Scenario) Scenario {
	sc.Defense = DefensePuzzles
	sc.Attack = AttackConnFlood
	sc.ClientsSolve = true
	sc.BotsSolve = true
	sc.BotMaxSolveBacklog = 2 * time.Second
	return sc
}

// fig12Grid declares Experiment 3's (k, m) difficulty product over the
// smart-bot connection flood: the paper's {1..4} × {12,15,16,17,18,20},
// or {1,2} × {12,16,17,20} at reduced scales. The clients' own solving
// bounds the m ≥ 15 rows, so (1,15), not the Nash cell (2,17), is the
// most stable (docs/EXPERIMENTS.md, "Known modelling deviations").
func fig12Grid(s Scale) sweep.Grid {
	ks, ms := []uint8{1, 2, 3, 4}, []uint8{12, 15, 16, 17, 18, 20}
	if reduced(s) {
		ks, ms = []uint8{1, 2}, []uint8{12, 16, 17, 20}
	}
	return sweep.Grid{Base: s.Apply(smartBots(Scenario{})), Axes: []sweep.Axis{sweep.Ks(ks...), sweep.Ms(ms...)}}
}

// fig12Metrics reports box statistics of every per-client per-bucket
// throughput sample inside the attack window.
func fig12Metrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	box := stats.BoxOf(run.ClientThroughputSamplesDuringAttack())
	return []sweep.Metric{
		{Name: "client_mbps_mean", Value: box.Mean},
		{Name: "client_mbps_std", Value: box.Std},
		{Name: "client_mbps_q1", Value: box.Q1},
		{Name: "client_mbps_med", Value: box.Med},
		{Name: "client_mbps_q3", Value: box.Q3},
		{Name: "samples", Value: float64(box.N)},
	}, nil
}

// Fig. 12 and §6.3: m = 12 is too easy to throttle the attackers.
var fig12Claims = []Claim{above("nash-beats-m12", "client_mbps_mean", "k=2/m=17", "k=2/m=12")}

var fig12Table = perCell("Fig 12 — client throughput during attack by difficulty (Mbps)",
	[]string{"k", "m", "mean", "std", "q1", "med", "q3"},
	func(r sweep.Result) []string {
		return append([]string{fmt.Sprintf("%d", r.Scenario.Params.K), fmt.Sprintf("%d", r.Scenario.Params.M)},
			metricCells(r, f2, "client_mbps_mean", "client_mbps_std", "client_mbps_q1", "client_mbps_med", "client_mbps_q3")...)
	})

// botnetSweepGrid is the shared grid of Figs. 13–14 (Experiment 4): the
// smart-bot connection flood at the Nash difficulty, with one axis
// varying the botnet shape on top.
func botnetSweepGrid(s Scale, axis sweep.Axis) sweep.Grid {
	return sweep.Grid{Base: s.Apply(smartBots(Scenario{Params: nashParams})), Axes: []sweep.Axis{axis}}
}

// fig13Grid fixes a 5-bot botnet and sweeps the per-node rate (100–1000
// pps in steps of 100; 100, 400, 700, 1000 at reduced scales),
// reproducing the finding that rate increases do not raise the effective
// attack rate.
func fig13Grid(s Scale) sweep.Grid {
	rates := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	if reduced(s) {
		rates = []float64{100, 400, 700, 1000}
	}
	points := make([]sweep.Point, len(rates))
	for i, rate := range rates {
		points[i] = sweep.Point{Label: fmt.Sprintf("%.0f pps/node", rate), Set: func(sc *Scenario) {
			sc.BotCount = 5
			sc.PerBotRate = rate
		}}
	}
	return botnetSweepGrid(s, sweep.Variants("rate", points...))
}

// fig14Grid fixes the cumulative attack rate at 5000 pps and sweeps the
// botnet size (2–14 bots in steps of 2; 2, 6, 10, 14 at reduced scales),
// reproducing the finding that only more machines raise the effective
// rate — and only marginally (≈1/100 of the measured rate).
func fig14Grid(s Scale) sweep.Grid {
	sizes := []int{2, 4, 6, 8, 10, 12, 14}
	if reduced(s) {
		sizes = []int{2, 6, 10, 14}
	}
	points := make([]sweep.Point, len(sizes))
	for i, size := range sizes {
		points[i] = sweep.Point{Label: fmt.Sprintf("%d bots", size), Set: func(sc *Scenario) {
			sc.BotCount = size
			sc.PerBotRate = 5000 / float64(size)
		}}
	}
	return botnetSweepGrid(s, sweep.Variants("bots", points...))
}

// Fig. 13: a higher per-node rate raises the measured rate, but the bots'
// CPU bounds their completions: 4× the rate, at most 2× + 1 completions.
var fig13Claims = []Claim{
	above("measured-rate-rises", "measured_rate_pps", "400 pps/node", "100 pps/node"),
	{"completions-cpu-bound", func(_ Scale, rs []sweep.Result) error {
		lo, hi := cellMetric(rs, "100 pps/node", "completion_rate_cps"), cellMetric(rs, "400 pps/node", "completion_rate_cps")
		return want(hi <= 2*lo+1, "completions %.2f cps at 400 pps/node, want ≤ 2 × %.2f + 1 at 100", hi, lo)
	}},
}

// Fig. 14: only more machines raise completions, a small share of the rate.
var fig14Claims = []Claim{
	above("more-bots-raise-completions", "completion_rate_cps", "14 bots", "2 bots"),
	{"completions-marginal", func(_ Scale, rs []sweep.Result) error {
		var errs []error
		for _, r := range rs {
			done, rate := r.Metric("completion_rate_cps"), r.Metric("measured_rate_pps")
			errs = append(errs, want(done <= 0.2*rate, "%s: completions %.2f cps, want ≤ 0.2 × measured %.1f pps", r.Scenario.Label, done, rate))
		}
		return errors.Join(errs...)
	}},
}

// botnetSweepMetrics measures the botnet's attempted rate (after CPU
// limiting) against the rate it completes at the server, both averaged
// over the attack window.
func botnetSweepMetrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	return []sweep.Metric{
		{Name: "measured_rate_pps", Value: run.AttackWindowMean(run.MeasuredAttackRate())},
		{Name: "completion_rate_cps", Value: run.AttackWindowMean(run.AttackerEstablishedRate())},
	}, nil
}

// botnetSweepTable renders attempted vs completed rate per sweep point.
func botnetSweepTable(title string) func([]sweep.Result) sweep.Table {
	return perCell(title, []string{"sweep", "measured-rate(pps)", "completion-rate(cps)"},
		func(r sweep.Result) []string {
			return []string{r.Scenario.Label, f1(r.Metric("measured_rate_pps")), f2(r.Metric("completion_rate_cps"))}
		})
}

// fig15Grid declares Experiment 5's four adoption mixes over the
// Nash-difficulty connection flood, in the paper's notation (NA,NC),
// (SA,NC), (NA,SC), (SA,SC): attackers and clients that do not (N) or do
// (S) solve; the paper groups the last two as (*A,SC). Solving clients
// are almost always served; non-solving clients see erratic service
// against solving attackers and near-zero service against non-solving
// ones.
func fig15Grid(s Scale) sweep.Grid {
	mix := func(label string, attackSolves, clientSolves bool) sweep.Point {
		return sweep.Point{Label: label, Set: func(sc *Scenario) {
			sc.ClientsSolve = clientSolves
			sc.BotsSolve = attackSolves
		}}
	}
	return sweep.Grid{
		Base: s.Apply(Scenario{Defense: DefensePuzzles, Params: nashParams, Attack: AttackConnFlood}),
		Axes: []sweep.Axis{sweep.Variants("mix",
			mix("(NA,NC)", false, false),
			mix("(SA,NC)", true, false),
			mix("(NA,SC)", false, true),
			mix("(SA,SC)", true, true),
		)},
	}
}

// Fig. 15: solving clients are served, and better than non-solving ones.
var fig15Claims = []Claim{
	within("solving-clients-served", "(NA,SC)", "pct_established", 70, inf),
	within("solving-clients-served-against-solvers", "(SA,SC)", "pct_established", 70, inf),
	above("solving-beats-non-solving", "pct_established", "(NA,SC)", "(NA,NC)"),
	above("solving-beats-non-solving-against-solvers", "pct_established", "(SA,SC)", "(SA,NC)"),
}

// fig15Metrics reports the percentage of client connection attempts that
// completed during the attack window, and its per-bucket series.
func fig15Metrics(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
	var attempts, successes float64
	for _, c := range run.Clients {
		attempts += c.Metrics().Attempts.SumRange(run.Cfg.AttackStart, run.Cfg.AttackStop)
		successes += c.Metrics().Successes.SumRange(run.Cfg.AttackStart, run.Cfg.AttackStop)
	}
	var pct float64
	if attempts > 0 {
		pct = 100 * successes / attempts
	}
	return []sweep.Metric{{Name: "pct_established", Value: pct}},
		[]sweep.Series{{Name: "pct_established", Values: pctSeries(run)}}
}

// pctSeries computes the per-bucket completion percentage across clients.
func pctSeries(run *FloodRun) []float64 {
	n := int(run.Cfg.Duration/run.Cfg.Bucket) + 1
	attempts := make([]float64, n)
	successes := make([]float64, n)
	for _, c := range run.Clients {
		for i, v := range c.Metrics().Attempts.Values(run.Cfg.Duration) {
			attempts[i] += v
		}
		for i, v := range c.Metrics().Successes.Values(run.Cfg.Duration) {
			successes[i] += v
		}
	}
	out := make([]float64, n)
	for i := range out {
		if attempts[i] > 0 {
			out[i] = 100 * successes[i] / attempts[i]
		}
	}
	return out
}

var fig15Table = perCell("Fig 15 — % established during attack by adoption mix",
	[]string{"scenario", "%established", "series"},
	func(r sweep.Result) []string {
		return []string{
			r.Scenario.Label,
			f1(r.Metric("pct_established")),
			sparkline(downsample(r.SeriesValues("pct_established"), 40)),
		}
	})
