package experiments

import (
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// tinyScale keeps unit tests fast while preserving the attack structure.
func tinyScale() Scale {
	return Scale{
		Duration: 60 * time.Second, AttackStart: 15 * time.Second, AttackStop: 45 * time.Second,
		NumClients: 4, ClientRate: 8, BotCount: 4, PerBotRate: 80,
		Backlog: 128, AcceptBacklog: 128, Workers: 48, Seed: 42,
	}
}

// mustExp returns a registered experiment.
func mustExp(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e
}

// runExp runs a registered experiment at scale, over its own grid or,
// when given, over a replacement grid.
func runExp(t *testing.T, id string, scale Scale, grid ...sweep.Grid) []sweep.Result {
	t.Helper()
	e := mustExp(t, id)
	if len(grid) > 0 {
		e.Grid = func(Scale) sweep.Grid { return grid[0] }
	}
	results, err := e.Run(scale, Exec{})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return results
}

// metric returns the named metric of the cell with the given label.
func metric(t *testing.T, results []sweep.Result, label, name string) float64 {
	t.Helper()
	for _, r := range results {
		if r.Scenario.Label == label {
			v, ok := r.Lookup(name)
			if !ok {
				t.Fatalf("cell %q has no metric %q", label, name)
			}
			return v
		}
	}
	t.Fatalf("no cell %q", label)
	return 0
}

// lastRow returns the rendered table's final row (the whole-grid summary
// row of fig3a, fig3b, fig11 and the ablations).
func lastRow(e Experiment, results []sweep.Result) []string {
	tbl := e.Render(results)
	return tbl.Rows[len(tbl.Rows)-1]
}

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("table cell %q: %v", cell, err)
	}
	return v
}

func TestFig3aProfiles(t *testing.T) {
	results := runExp(t, "fig3a", Scale{})
	if len(results) != 3 {
		t.Fatalf("curves = %d, want 3", len(results))
	}
	row := lastRow(mustExp(t, "fig3a"), results)
	if wav := parseCell(t, row[1]); row[0] != "w_av" || math.Abs(wav-140630)/140630 > 0.01 {
		t.Errorf("%s = %v, want w_av ≈ 140630", row[0], wav)
	}
}

func TestFig3bAlphaConverges(t *testing.T) {
	results := runExp(t, "fig3b", Scale{})
	row := lastRow(mustExp(t, "fig3b"), results)
	if alpha := parseCell(t, row[1]); row[0] != "converged α" || math.Abs(alpha-1.1) > 0.02 {
		t.Errorf("%s = %v, want α ≈ 1.1", row[0], alpha)
	}
	// Service rate must ramp and plateau at µ ≈ 1100.
	if plateau := results[len(results)-1].Metric("service_rate"); math.Abs(plateau-1100) > 1 {
		t.Errorf("plateau = %v, want 1100", plateau)
	}
}

func TestFig6ShapeExponentialInMLinearInK(t *testing.T) {
	results := runExp(t, "fig6", Scale{}, connTimeGrid([]uint8{1, 2}, []uint8{4, 10, 16}, 60, 7))
	mean := func(label string) float64 { return metric(t, results, label, "conn_time_mean_us") }
	m4, m10, m16 := mean("k=1/m=4"), mean("k=1/m=10"), mean("k=1/m=16")
	if !(m4 < m10 && m10 < m16) {
		t.Errorf("means not increasing in m: %v, %v, %v", m4, m10, m16)
	}
	// Exponential in m: 6 extra bits ⇒ ~64× more work; allow slack for
	// RTT floor at small m.
	if m16 < 8*m10 {
		t.Errorf("m=16 mean %v not ≫ m=10 mean %v", m16, m10)
	}
	// Linear in k: doubling k roughly doubles the solve-dominated time.
	ratio := mean("k=2/m=16") / m16
	if ratio < 1.4 || ratio > 3 {
		t.Errorf("k=2/k=1 ratio at m=16 = %v, want ≈ 2", ratio)
	}
}

func TestFig7SYNFloodOutcomes(t *testing.T) {
	results := runExp(t, "fig7", tinyScale())
	cli := func(label, phase string) float64 { return metric(t, results, label, "client_mbps_"+phase) }

	before, during := cli("nodefense", "before"), cli("nodefense", "during")
	if before <= 0 {
		t.Fatalf("nodefense before = %v, want > 0", before)
	}
	// Without defense the SYN flood must crater client throughput.
	if during > 0.2*before {
		t.Errorf("nodefense during = %v vs before %v: flood ineffective", during, before)
	}
	// Cookies neutralise a SYN flood.
	if ckBefore, ckDuring := cli("cookies", "before"), cli("cookies", "during"); ckDuring < 0.7*ckBefore {
		t.Errorf("cookies during = %v vs before %v: should be unaffected", ckDuring, ckBefore)
	}
	// Easy puzzles also neutralise it.
	if p8Before, p8During := cli("challenges-m8", "before"), cli("challenges-m8", "during"); p8During < 0.6*p8Before {
		t.Errorf("puzzles-m8 during = %v vs before %v", p8During, p8Before)
	}
}

// TestFig8ConnFloodOutcomes checks Fig. 8 at eight fixed seeds. Denial
// and preservation hold at every seed. That puzzles beat cookies during
// the attack is a claim about the mean, and one tiny-scale seed can flip
// it: puzzles must win beyond both arms' 95 % confidence half-widths over
// the seeds.
func TestFig8ConnFloodOutcomes(t *testing.T) {
	var all []sweep.Result
	for seed := int64(42); seed <= 49; seed++ {
		scale := tinyScale()
		scale.Seed = seed
		results := runExp(t, "fig8", scale)
		cli := func(label, phase string) float64 { return metric(t, results, label, "client_mbps_"+phase) }

		for _, label := range []string{"nodefense", "cookies"} {
			if before, during := cli(label, "before"), cli(label, "during"); during > 0.3*before {
				t.Errorf("seed %d: %s during = %v vs before %v: connection flood should deny service",
					seed, label, during, before)
			}
		}
		if pzBefore, pzDuring := cli("challenges-m17", "before"), cli("challenges-m17", "during"); pzDuring < 0.15*pzBefore {
			t.Errorf("seed %d: puzzles during = %v vs before %v: puzzles should preserve service",
				seed, pzDuring, pzBefore)
		}
		all = append(all, results...)
	}
	folded := sweep.FoldSeeds(all)
	during := func(label string) (mean, ci95 float64) {
		return metric(t, folded, label, "client_mbps_during_mean"), metric(t, folded, label, "client_mbps_during_ci95")
	}
	pz, pzCI := during("challenges-m17")
	ck, ckCI := during("cookies")
	if pz-pzCI <= ck+ckCI {
		t.Errorf("puzzles during %.3f ± %.3f not above cookies %.3f ± %.3f over seeds 42–49", pz, pzCI, ck, ckCI)
	}
}

func TestFig9CPUProfile(t *testing.T) {
	results := runExp(t, "fig9", tinyScale())
	cpu := func(name string) float64 { return metric(t, results, "challenges-m17", name) }
	if srvDuring := cpu("server_cpu_pct_during"); srvDuring > 5 {
		t.Errorf("server CPU during attack = %v%%, want < 5%% (§6.2)", srvDuring)
	}
	if attDuring := cpu("attacker_cpu_pct_during"); attDuring < 60 {
		t.Errorf("attacker CPU during = %v%%, want a solving spike", attDuring)
	}
	if attBefore := cpu("attacker_cpu_pct_before"); attBefore > 1 {
		t.Errorf("attacker CPU before = %v%%, want ≈ 0", attBefore)
	}
	if cpu("client_cpu_pct_during") <= 0 {
		t.Error("client CPU during attack = 0, want solving load")
	}
	if cliBefore := cpu("client_cpu_pct_before"); cliBefore > 1 {
		t.Errorf("client CPU before attack = %v%%, want ≈ 0 (no challenges)", cliBefore)
	}
	// See EXPERIMENTS.md: our latch challenges every client request during
	// the attack, so modelled client CPU saturates its solve budget rather
	// than staying near the paper's 10%; the qualitative ordering
	// (baseline ≈ 0, solving load during attack) is preserved.
}

func TestFig10QueueBehaviour(t *testing.T) {
	results := runExp(t, "fig10", tinyScale())
	ckDuring := metric(t, results, "cookies", "accept_queue_during")
	pzDuring := metric(t, results, "challenges", "accept_queue_during")
	// With cookies the accept queue saturates; with puzzles it drains once
	// protection engages. At this reduced scale the drain occupies part of
	// the window, so assert a clear separation; the paper-scale run in
	// EXPERIMENTS.md shows the near-empty queue of Fig. 10.
	if pzDuring > 0.6*ckDuring {
		t.Errorf("accept queue cookies=%v puzzles=%v: puzzles should keep it lower",
			ckDuring, pzDuring)
	}
}

func TestFig11RateLimiting(t *testing.T) {
	results := runExp(t, "fig11", tinyScale())
	// At this reduced scale the pre-engagement burst dominates the 30 s
	// attack window, compressing the factor; the paper-scale run (360 s
	// attack, EXPERIMENTS.md) recovers the order-of-magnitude reduction
	// (paper: 37×).
	factor := metric(t, results, "cookies", "attacker_established_during") /
		metric(t, results, "challenges", "attacker_established_during")
	if factor < 3 {
		t.Errorf("reduction factor = %v, want ≫ 1 (paper: 37×)", factor)
	}
	// The rendered table carries the same factor as its summary row.
	if row := lastRow(mustExp(t, "fig11"), results); row[0] != "reduction" || row[1] != fmt.Sprintf("%.1fx", factor) {
		t.Errorf("summary row %q, want reduction %.1fx", row, factor)
	}
}

func TestFig12NashStability(t *testing.T) {
	scale := tinyScale()
	results := runExp(t, "fig12", scale, difficultyFloodGrid(scale, []uint8{2}, []uint8{12, 17}))
	easy := metric(t, results, "k=2/m=12", "client_mbps_mean")
	nash := metric(t, results, "k=2/m=17", "client_mbps_mean")
	// m=12 is too easy to throttle the attackers (§6.3): the Nash cell
	// must deliver higher client throughput.
	if nash <= easy {
		t.Errorf("nash mean %v ≤ easy mean %v", nash, easy)
	}
}

func TestFig13RateIncreaseDoesNotHelp(t *testing.T) {
	scale := tinyScale()
	results := runExp(t, "fig13", scale, rateSweepGrid(scale, []float64{50, 200}))
	lo, hi := results[0], results[1]
	if hi.Metric("measured_rate_pps") <= lo.Metric("measured_rate_pps") {
		t.Errorf("measured rate did not increase: %v vs %v",
			lo.Metric("measured_rate_pps"), hi.Metric("measured_rate_pps"))
	}
	// Quadrupling the rate must not quadruple completions (CPU-bound).
	if hi.Metric("completion_rate_cps") > 2*lo.Metric("completion_rate_cps")+1 {
		t.Errorf("completion rate scaled with attack rate: %v → %v",
			lo.Metric("completion_rate_cps"), hi.Metric("completion_rate_cps"))
	}
}

func TestFig14MoreBotsRaiseCompletions(t *testing.T) {
	scale := tinyScale()
	results := runExp(t, "fig14", scale, sizeSweepGrid(scale, []int{2, 8}, 400))
	small, big := results[0].Metric("completion_rate_cps"), results[1].Metric("completion_rate_cps")
	if big <= small {
		t.Errorf("completions with 8 bots (%v) not above 2 bots (%v)", big, small)
	}
	// Completions remain a small fraction of the measured rate.
	if measured := results[1].Metric("measured_rate_pps"); big > 0.2*measured {
		t.Errorf("completion rate %v too close to measured %v", big, measured)
	}
}

func TestFig15AdoptionOutcomes(t *testing.T) {
	results := runExp(t, "fig15", tinyScale())
	pct := func(label string) float64 { return metric(t, results, label, "pct_established") }
	nanc, sanc, nasc, sasc := pct("(NA,NC)"), pct("(SA,NC)"), pct("(NA,SC)"), pct("(SA,SC)")

	// Solving clients are (almost) always served regardless of attacker.
	if nasc < 70 {
		t.Errorf("(NA,SC) = %v%%, want high", nasc)
	}
	if sasc < 70 {
		t.Errorf("(SA,SC) = %v%%, want high", sasc)
	}
	// Non-solving clients fare worse than solving ones.
	if nanc > nasc {
		t.Errorf("(NA,NC)=%v%% above (NA,SC)=%v%%", nanc, nasc)
	}
	if sanc > sasc {
		t.Errorf("(SA,NC)=%v%% above (SA,SC)=%v%%", sanc, sasc)
	}
}

func TestTable1DerivedColumns(t *testing.T) {
	results := runExp(t, "tab1", Scale{})
	if len(results) != 4 {
		t.Fatalf("rows = %d, want 4", len(results))
	}
	for _, r := range results {
		// Every Pi can still connect (solve in seconds)…
		if solve := msDuration(r.Metric("nash_solve_time_ms")); solve > 30*time.Second {
			t.Errorf("%s solve time %v too slow to ever connect", r.Scenario.Label, solve)
		}
		// …but cannot flood: well under one solved connection per second.
		if cps := r.Metric("max_flood_cps"); cps > 1 {
			t.Errorf("%s flood rate %v cps, want < 1", r.Scenario.Label, cps)
		}
	}
}

func TestNashExampleMatchesPaper(t *testing.T) {
	res := runExp(t, "nash", Scale{})[0]
	if k, m := res.Metric("k_star"), res.Metric("m_star"); k != 2 || m != 17 {
		t.Errorf("(k,m) = (%v,%v), want (2,17)", k, m)
	}
	if alpha := res.Metric("alpha"); math.Abs(alpha-1.1) > 0.02 {
		t.Errorf("α = %v", alpha)
	}
	// Finite-N optimum close to the asymptotic ℓ*.
	finite, lstar := res.Metric("finite_l_star"), res.Metric("l_star")
	if math.Abs(finite-lstar)/lstar > 0.05 {
		t.Errorf("finite ℓ* %v vs asymptotic %v", finite, lstar)
	}
}

func TestAblationOpportunistic(t *testing.T) {
	results := runExp(t, "ablation-opportunistic", tinyScale())
	oppBefore := metric(t, results, "opportunistic", "client_mbps_before")
	alwBefore := metric(t, results, "always-on", "client_mbps_before")
	// Before the attack the opportunistic controller must not tax clients;
	// always-on solves every handshake and loses peacetime throughput.
	if oppBefore <= alwBefore {
		t.Errorf("opportunistic before (%v) not above always-on (%v)", oppBefore, alwBefore)
	}
}

func TestAblationSolutionFlood(t *testing.T) {
	results := runExp(t, "ablation-solutionflood", tinyScale())
	if metric(t, results, "solution-flood", "solutions_rejected") == 0 {
		t.Error("no bogus solutions rejected")
	}
	if during := metric(t, results, "solution-flood", "server_cpu_during"); during > 5 {
		t.Errorf("server CPU during solution flood = %v%%, want < 5%%", during)
	}
}

// Every registered experiment renders from its Results alone: the
// ledger (sweep.TestExperimentLedger) pins the bytes; this checks the
// shape on two cheap ones.
func TestTablesRender(t *testing.T) {
	for _, id := range []string{"fig8", "tab1"} {
		e := mustExp(t, id)
		tbl := e.Render(runExp(t, id, tinyScale()))
		if len(tbl.Rows) == 0 || len(tbl.String()) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}
