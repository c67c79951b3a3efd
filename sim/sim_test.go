package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

func tinyScenario() Scenario {
	return Scenario{
		Duration:      60 * time.Second,
		AttackStart:   15 * time.Second,
		AttackStop:    45 * time.Second,
		NumClients:    3,
		ClientRate:    8,
		ClientsSolve:  true,
		Backlog:       128,
		AcceptBacklog: 128,
		Workers:       32,
		BotCount:      3,
		PerBotRate:    80,
		BotsSolve:     true,
		Seed:          5,
	}
}

func TestRunPuzzlesScenario(t *testing.T) {
	res, err := Run(tinyScenario())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v := res.Metric("client_mbps_before"); v <= 0 {
		t.Errorf("client_mbps_before = %v", v)
	}
	for _, name := range []string{"client_mbps", "server_mbps", "server_cpu_pct", "attacker_established_cps"} {
		if len(res.SeriesValues(name)) == 0 {
			t.Errorf("empty %s series", name)
		}
	}
}

func TestRunDefenseComparison(t *testing.T) {
	sc := tinyScenario()
	sc.Defense = DefenseNone
	noDef, err := Run(sc)
	if err != nil {
		t.Fatalf("Run(none): %v", err)
	}
	sc.Defense = DefensePuzzles
	puzzles, err := Run(sc)
	if err != nil {
		t.Fatalf("Run(puzzles): %v", err)
	}
	if pz, none := puzzles.Metric("client_mbps_during"), noDef.Metric("client_mbps_during"); pz <= none {
		t.Errorf("puzzles during %v not above none %v", pz, none)
	}
}

// measured strips a result to what it measured, dropping the
// scheduling-dependent pool stats.
func measured(r sweep.Result) sweep.Result {
	r.Exec = nil
	return r
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(tinyScenario())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(tinyScenario())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(measured(a), measured(b)) {
		t.Error("equal seeds produced different results")
	}
	c := tinyScenario()
	c.Seed = 6
	other, err := Run(c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reflect.DeepEqual(other.Metrics, a.Metrics) {
		t.Log("different seeds produced identical summary (possible but unlikely)")
	}
}

// Run is a one-cell RunSweep: the same executor, cell and metric set.
func TestRunMatchesRunSweepCell(t *testing.T) {
	sc := tinyScenario()
	sc.Label = "one"
	got, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := RunSweep(sweep.Grid{Base: sc})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(want) != 1 {
		t.Fatalf("RunSweep: %d results, want 1", len(want))
	}
	if !reflect.DeepEqual(measured(got), measured(want[0])) {
		t.Errorf("Run differs from the RunSweep cell:\n got %+v\nwant %+v", got, want[0])
	}
}

func TestRunAllMatchesSequentialRun(t *testing.T) {
	scs := []Scenario{tinyScenario(), tinyScenario(), tinyScenario(), tinyScenario()}
	for i := range scs {
		scs[i].Seed = int64(10 + i)
	}
	parallel, err := RunAll(scs, WithWorkers(4))
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i, sc := range scs {
		serial, err := Run(sc)
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		if !reflect.DeepEqual(measured(parallel[i]), measured(serial)) {
			t.Errorf("scenario %d: RunAll differs from Run", i)
		}
	}
}

// RunAll runs what it is given: a repeated scenario is not deduplicated
// the way a grid's cells are.
func TestRunAllKeepsDuplicatesInOrder(t *testing.T) {
	a, b := tinyScenario(), tinyScenario()
	a.Label, b.Label = "a", "b"
	b.Defense = DefenseCookies
	scs := []Scenario{a, b, a}
	results, err := RunAll(scs, WithWorkers(2))
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(results) != len(scs) {
		t.Fatalf("RunAll: %d results for %d scenarios", len(results), len(scs))
	}
	for i, r := range results {
		if r.Scenario != scs[i].Defaults() {
			t.Errorf("result %d ran %q (%s), want %q (%s)", i,
				r.Scenario.Label, r.Scenario.Defense, scs[i].Label, scs[i].Defense)
		}
	}
	if !reflect.DeepEqual(measured(results[0]), measured(results[2])) {
		t.Error("the repeated scenario measured differently")
	}
}

// The determinism guarantee at the façade: RunAll's sink stream is
// byte-identical at every worker count, across defenses and attacks.
func TestRunAllNDJSONIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a mixed grid at two worker counts")
	}
	var scs []Scenario
	for _, v := range []struct {
		d Defense
		a Attack
	}{
		{DefensePuzzles, AttackConnFlood}, {DefenseCookies, AttackSYNFlood},
		{DefenseNone, AttackConnFlood}, {DefenseSYNCache, AttackSYNFlood},
	} {
		sc := tinyScenario()
		sc.Label, sc.Defense, sc.Attack = string(v.d), v.d, v.a
		scs = append(scs, sc)
	}
	render := func(workers int) []byte {
		t.Helper()
		var buf bytes.Buffer
		sink := sweep.NewNDJSON(&buf)
		if _, err := RunAll(scs, WithWorkers(workers), WithSinks(sink)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render(1)
	if n := bytes.Count(want, []byte("\n")); n != len(scs) {
		t.Fatalf("workers=1 wrote %d records, want %d", n, len(scs))
	}
	if got := render(4); !bytes.Equal(got, want) {
		t.Errorf("workers=4 NDJSON differs from workers=1:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunAllPropagatesError(t *testing.T) {
	scs := []Scenario{tinyScenario(), tinyScenario()}
	scs[1].Label = "bad-cell"
	scs[1].Attack = "tsunami"
	_, err := RunAll(scs, WithWorkers(2))
	if err == nil || !strings.Contains(err.Error(), `"bad-cell"`) || !strings.Contains(err.Error(), "tsunami") {
		t.Errorf("error %v does not name the failing cell and its attack", err)
	}
}

func TestRunExperimentWithWorkers(t *testing.T) {
	// The option must not change results, only execution width. fig9
	// consumes Scale.Parallelism through the flood-scenario runner.
	a, err := RunExperiment("fig9", ScaleQuick, WithWorkers(1))
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	b, err := RunExperiment("fig9", ScaleQuick, WithWorkers(4))
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	if a[0].String() != b[0].String() {
		t.Error("worker count changed experiment output")
	}
}

func TestRunRejectsUnknownConfig(t *testing.T) {
	sc := tinyScenario()
	sc.Defense = "voodoo"
	if _, err := Run(sc); err == nil {
		t.Error("unknown defense accepted")
	}
	sc = tinyScenario()
	sc.Attack = "tsunami"
	if _, err := Run(sc); err == nil {
		t.Error("unknown attack accepted")
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	// IDs come from the registry in display order; every listed id must
	// run and every runnable id must be listed (both derive from the one
	// registry, so this is a change-detector for the display order only).
	ids := ExperimentIDs()
	want := []string{
		"fig3a", "fig3b", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "tab1", "nash",
		"ablation-opportunistic", "ablation-solutionflood",
		"ablation-membound", "ablation-adaptive", "armsrace",
	}
	if len(ids) != len(want) {
		t.Fatalf("got %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], id)
		}
	}
}

func TestRunExperimentQuick(t *testing.T) {
	// Smoke-run the cheap experiments end to end through the public API.
	for _, id := range []string{"fig3a", "fig3b", "tab1", "nash"} {
		tables, err := RunExperiment(id, ScaleQuick)
		if err != nil {
			t.Fatalf("RunExperiment(%s): %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("RunExperiment(%s): no tables", id)
		}
		out := tables[0].String()
		if !strings.Contains(out, "==") {
			t.Errorf("RunExperiment(%s) output missing title: %q", id, out)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", ScaleQuick); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := RunExperiment("fig8", "mega"); err == nil {
		t.Error("unknown scale accepted")
	}
}

// TestRunSweepOversubscribedShards: two runner workers each driving a
// four-shard cell is eight goroutines that can all be polling a window
// barrier at once; on two Ps the sweep must still complete, with sink
// bytes equal to the serial run's.
func TestRunSweepOversubscribedShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	fig13, _ := experiments.ByID("fig13")
	grid := fig13.Grid(experiments.TinyScale())
	run := func(workers, shards int) []byte {
		t.Helper()
		var buf bytes.Buffer
		results, err := RunSweep(grid, WithWorkers(workers), WithShards(shards), WithSinks(sweep.NewNDJSON(&buf)))
		if err != nil {
			t.Fatalf("RunSweep(workers=%d, shards=%d): %v", workers, shards, err)
		}
		if len(results) != 4 {
			t.Fatalf("RunSweep(workers=%d, shards=%d): %d results, want 4", workers, shards, len(results))
		}
		return buf.Bytes()
	}
	want := run(1, 1)
	if got := run(2, 4); !bytes.Equal(got, want) {
		t.Errorf("workers=2 × shards=4 NDJSON differs from the serial run:\n got:\n%s\nwant:\n%s", got, want)
	}
}
