package sim

import (
	"bytes"
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
	if res.ClientMbpsBefore <= 0 {
		t.Errorf("ClientMbpsBefore = %v", res.ClientMbpsBefore)
	}
	if len(res.ClientMbps) == 0 || len(res.ServerMbps) == 0 {
		t.Error("empty series")
	}
	if len(res.ListenQueue) == 0 || len(res.AcceptQueue) == 0 {
		t.Error("empty queue series")
	}
	if len(res.AttackerSentPerSec) == 0 {
		t.Error("empty attacker series")
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
	if puzzles.ClientMbpsDuring <= noDef.ClientMbpsDuring {
		t.Errorf("puzzles during %v not above none %v",
			puzzles.ClientMbpsDuring, noDef.ClientMbpsDuring)
	}
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
	if a.ClientMbpsDuring != b.ClientMbpsDuring ||
		a.EffectiveAttackRate != b.EffectiveAttackRate {
		t.Error("equal seeds produced different results")
	}
	c := tinyScenario()
	c.Seed = 6
	other, err := Run(c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if other.ClientMbpsBefore == a.ClientMbpsBefore &&
		other.EffectiveAttackRate == a.EffectiveAttackRate {
		t.Log("different seeds produced identical summary (possible but unlikely)")
	}
}

func TestRunAllMatchesSequentialRun(t *testing.T) {
	scs := []Scenario{tinyScenario(), tinyScenario(), tinyScenario(), tinyScenario()}
	for i := range scs {
		scs[i].Seed = int64(10 + i)
	}
	parallel, err := RunAll(4, scs)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i, sc := range scs {
		serial, err := Run(sc)
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		if len(parallel[i].ClientMbps) != len(serial.ClientMbps) {
			t.Fatalf("scenario %d: series length mismatch", i)
		}
		for j := range serial.ClientMbps {
			if parallel[i].ClientMbps[j] != serial.ClientMbps[j] {
				t.Fatalf("scenario %d bucket %d: parallel %v != serial %v",
					i, j, parallel[i].ClientMbps[j], serial.ClientMbps[j])
			}
		}
		if parallel[i].EffectiveAttackRate != serial.EffectiveAttackRate {
			t.Errorf("scenario %d: attack rate differs", i)
		}
	}
}

func TestRunAllPropagatesError(t *testing.T) {
	scs := []Scenario{tinyScenario(), tinyScenario()}
	scs[1].Attack = "tsunami"
	if _, err := RunAll(2, scs); err == nil {
		t.Error("bad scenario accepted")
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
