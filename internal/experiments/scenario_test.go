package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

func TestDefaultsFillOnlyUnsetFields(t *testing.T) {
	sc := Scenario{}.Defaults()
	if sc.Duration != 600*time.Second || sc.NumClients != 15 || sc.ClientRate != 20 {
		t.Errorf("zero scenario defaults wrong: %+v", sc)
	}
	if sc.Defense != DefensePuzzles || sc.Attack != AttackConnFlood {
		t.Errorf("default enums wrong: %q %q", sc.Defense, sc.Attack)
	}
	if sc.BotCount != 10 || sc.PerBotRate != 500 || sc.Seed != 1 {
		t.Errorf("default botnet wrong: %+v", sc)
	}
}

// Regression for the old fill() footgun: explicitly selected variants must
// never be overwritten by defaulting, including the "none"/"off" choices.
func TestDefaultsPreserveExplicitChoices(t *testing.T) {
	sc := Scenario{
		Defense:  DefenseNone,
		Attack:   AttackSYNFlood,
		BotCount: NoBotnet,
		Workers:  -1,
		Params:   puzzle.Params{K: 1, M: 4, L: 32},
	}.Defaults()
	if sc.Defense != DefenseNone {
		t.Errorf("DefenseNone overwritten to %q", sc.Defense)
	}
	if sc.Attack != AttackSYNFlood {
		t.Errorf("AttackSYNFlood overwritten to %q", sc.Attack)
	}
	if sc.BotCount != NoBotnet {
		t.Errorf("NoBotnet overwritten to %d", sc.BotCount)
	}
	if sc.Workers != -1 {
		t.Errorf("Workers sentinel overwritten to %d", sc.Workers)
	}
	if sc.Params.M != 4 {
		t.Errorf("explicit params overwritten to %v", sc.Params)
	}
}

// Apply must not resurrect what the scenario explicitly switched off.
func TestScaleApplyPreservesSentinels(t *testing.T) {
	sc := tinyScale().Apply(Scenario{BotCount: NoBotnet, Workers: -1})
	if sc.BotCount != NoBotnet {
		t.Errorf("Apply overwrote NoBotnet with %d", sc.BotCount)
	}
	if sc.Workers != -1 {
		t.Errorf("Apply overwrote Workers sentinel with %d", sc.Workers)
	}
	// ...and Defaults must not either.
	sc = sc.Defaults()
	if sc.BotCount != NoBotnet || sc.Workers != -1 {
		t.Errorf("Defaults after Apply lost sentinels: %+v", sc)
	}
	// Ordinary scenarios still take the scale's botnet shape.
	sc = tinyScale().Apply(Scenario{})
	if sc.BotCount != tinyScale().BotCount || sc.Workers != tinyScale().Workers {
		t.Errorf("Apply did not apply scale: %+v", sc)
	}
}

func TestRunFloodWithoutBotnet(t *testing.T) {
	sc := tinyScale().Apply(Scenario{ClientsSolve: true, BotCount: NoBotnet})
	run, err := RunFlood(sc)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	if run.Macro != nil {
		t.Error("NoBotnet scenario still built a botnet")
	}
	if run.AttackerCPU() != nil || run.MeasuredAttackRate() != nil {
		t.Error("attacker series should be nil without a botnet")
	}
	cli := run.ClientThroughputMbps()
	if phaseMean(run, cli, phaseDuring) <= 0 {
		t.Error("clients idle despite no attack")
	}
}

func TestRunFloodRejectsUnknownEnums(t *testing.T) {
	sc := tinyScale().Apply(Scenario{})
	sc.Defense = "voodoo"
	if _, err := RunFlood(sc); err == nil || !strings.Contains(err.Error(), "voodoo") {
		t.Errorf("unknown defense accepted: %v", err)
	}
	sc = tinyScale().Apply(Scenario{})
	sc.Attack = "tsunami"
	if _, err := RunFlood(sc); err == nil || !strings.Contains(err.Error(), "tsunami") {
		t.Errorf("unknown attack accepted: %v", err)
	}
}

// A failing cell in a parallel grid aborts the run, and the error names
// the cell and its cause.
func TestRunScenariosPropagatesError(t *testing.T) {
	grid := []Scenario{
		{Label: "puzzles", Defense: DefensePuzzles, Attack: AttackConnFlood,
			ClientsSolve: true, BotsSolve: true},
		{Label: "cookies", Defense: DefenseCookies, Attack: AttackSYNFlood,
			ClientsSolve: true},
		{Label: "none", Defense: DefenseNone, Attack: AttackConnFlood,
			ClientsSolve: true},
		{Label: "syncache", Defense: DefenseSYNCache, Attack: AttackSYNFlood,
			ClientsSolve: true},
	}
	for i := range grid {
		grid[i] = tinyScale().Apply(grid[i])
	}
	grid[2].Defense = "bogus"
	_, err := RunCells(Exec{Parallelism: 4}, grid)
	if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), `"none"`) {
		t.Errorf("error not propagated: %v", err)
	}
}

// seriesFingerprint flattens every measurement series of a run into
// one comparable string, so "identical results" means bit-for-bit equal
// series, not just equal summaries.
func seriesFingerprint(run *FloodRun) string {
	var b strings.Builder
	dump := func(name string, series []float64) {
		fmt.Fprintf(&b, "%s:", name)
		for _, v := range series {
			fmt.Fprintf(&b, "%x,", v)
		}
		b.WriteByte('\n')
	}
	listen, accept := run.QueueSizes()
	dump("cli", run.ClientThroughputMbps())
	dump("srv", run.ServerThroughputMbps())
	dump("srvcpu", run.ServerCPU())
	dump("clicpu", run.ClientCPU())
	dump("attcpu", run.AttackerCPU())
	dump("listen", listen)
	dump("accept", accept)
	dump("estab", run.AttackerEstablishedRate())
	dump("sent", run.MeasuredAttackRate())
	return b.String()
}

// Distinct seeds must produce distinct series: the seed really drives the
// randomness, for every seed.
func TestDistinctSeedsProduceDistinctSeries(t *testing.T) {
	base := tinyScale().Apply(Scenario{ClientsSolve: true, BotsSolve: true})
	grid := make([]Scenario, 6)
	for i := range grid {
		grid[i] = base
		grid[i].Seed = int64(100 + i)
	}
	seen := make(map[string]int64, len(grid))
	for i, sc := range grid {
		run, err := RunFlood(sc)
		if err != nil {
			t.Fatalf("RunFlood(seed %d): %v", sc.Seed, err)
		}
		fp := seriesFingerprint(run)
		if prev, dup := seen[fp]; dup {
			t.Errorf("seeds %d and %d produced identical series", prev, grid[i].Seed)
		}
		seen[fp] = grid[i].Seed
	}
}

// QuickScale is the largest deployment tests exercise; the full §6
// PaperScale stays in cmd/tcpz-exp. Guarded so CI (-short) skips it.
func TestQuickScaleGridThroughRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale grid is several seconds of simulation")
	}
	results := runExp(t, "fig8", QuickScale())
	pz := metric(t, results, "challenges-m17", "client_mbps_during")
	ck := metric(t, results, "cookies", "client_mbps_during")
	if pz <= ck {
		t.Errorf("QuickScale: puzzles during (%v) not above cookies (%v)", pz, ck)
	}
}
