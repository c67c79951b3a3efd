package experiments

import (
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// mustExp returns a registered experiment.
func mustExp(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e
}

// runExp runs a registered experiment over its own grid at scale.
func runExp(t *testing.T, id string, scale Scale) []sweep.Result {
	t.Helper()
	results, err := mustExp(t, id).Run(scale, Exec{})
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

// TestClaims runs every registered experiment as one plan at TinyScale,
// checks each claim on its experiment's Results (one subtest per claim)
// and renders every table from those Results.
func TestClaims(t *testing.T) {
	scale := TinyScale()
	results, err := RunPlan(Experiments, scale, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range Experiments {
		if tbl := e.Render(results[k]); len(tbl.Rows) == 0 || len(tbl.String()) == 0 {
			t.Errorf("%s: empty table", e.ID)
		}
		t.Run(e.ID, func(t *testing.T) {
			for _, v := range e.Check(scale, results[k]) {
				t.Run(v.Claim, func(t *testing.T) {
					if v.Err != nil {
						t.Error(v)
					}
				})
			}
		})
	}
}

// TestFig8ConnFloodOutcomes checks fig8's claims at eight fixed seeds,
// and that puzzles beat cookies during the attack: a claim about the
// mean, which one tiny-scale seed can flip, so puzzles must win beyond
// both arms' 95 % confidence half-widths over the seeds.
func TestFig8ConnFloodOutcomes(t *testing.T) {
	var all []sweep.Result
	for seed := int64(42); seed <= 49; seed++ {
		scale := TinyScale()
		scale.Seed = seed
		results := runExp(t, "fig8", scale)
		for _, v := range mustExp(t, "fig8").Check(scale, results) {
			if v.Err != nil {
				t.Errorf("seed %d: %v", seed, v)
			}
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
