package sweep

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func replicateFixture() []Result {
	mk := func(seed int64, label string, v, w float64, series ...float64) Result {
		return Result{
			Experiment: "exp",
			Scenario:   Scenario{Label: label, Seed: seed}.Defaults(),
			Metrics:    []Metric{{Name: "m1", Value: v}, {Name: "m2", Value: w}},
			Series:     []Series{{Name: "s", Values: series}},
		}
	}
	return []Result{
		mk(1, "cell-a/seed=1", 10, 4, 1, 2),
		mk(2, "cell-a/seed=2", 14, 4, 3, 4),
		mk(3, "cell-a/seed=3", 18, 4, 5, 6),
		mk(9, "cell-b/seed=9", 7, 0, 10),
	}
}

func TestFoldSeedsMeanAndStddev(t *testing.T) {
	folded := FoldSeeds(replicateFixture())
	if len(folded) != 2 {
		t.Fatalf("folded groups = %d, want 2", len(folded))
	}
	a := folded[0]
	if a.Scenario.Label != "cell-a" {
		t.Errorf("label = %q, want cell-a (seed part stripped)", a.Scenario.Label)
	}
	if a.Scenario.Seed != 0 {
		t.Errorf("folded seed = %d, want 0", a.Scenario.Seed)
	}
	if got := a.Metric("replicates"); got != 3 {
		t.Errorf("replicates = %v, want 3", got)
	}
	if got := a.Metric("m1_mean"); got != 14 {
		t.Errorf("m1_mean = %v, want 14", got)
	}
	if got := a.Metric("m1_stddev"); math.Abs(got-4) > 1e-9 {
		t.Errorf("m1_stddev = %v, want 4 (sample stddev of 10,14,18)", got)
	}
	if got := a.Metric("m2_stddev"); got != 0 {
		t.Errorf("m2_stddev = %v, want 0 for constant metric", got)
	}
	// ci95 = t(df=2) · s/√n = 4.303 · 4/√3.
	if got, want := a.Metric("m1_ci95"), 4.303*4/math.Sqrt(3); math.Abs(got-want) > 1e-9 {
		t.Errorf("m1_ci95 = %v, want %v", got, want)
	}
	if got := a.Metric("m2_ci95"); got != 0 {
		t.Errorf("m2_ci95 = %v, want 0 for constant metric", got)
	}
	s := a.SeriesValues("s_mean")
	if len(s) != 2 || s[0] != 3 || s[1] != 4 {
		t.Errorf("s_mean = %v, want [3 4]", s)
	}
	// A single replicate folds to itself with zero spread.
	b := folded[1]
	if got := b.Metric("replicates"); got != 1 {
		t.Errorf("cell-b replicates = %v, want 1", got)
	}
	if got := b.Metric("m1_stddev"); got != 0 {
		t.Errorf("single-replicate stddev = %v, want 0", got)
	}
	if got := b.Metric("m1_ci95"); got != 0 {
		t.Errorf("single-replicate ci95 = %v, want 0", got)
	}
}

// tCritical95 must agree with the published table at its edges and decay
// monotonically toward the normal quantile.
func TestTCritical95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 2: 4.303, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980}
	for df, want := range cases {
		if got := tCritical95(df); math.Abs(got-want) > 2e-3 {
			t.Errorf("tCritical95(%d) = %v, want ≈%v", df, got, want)
		}
	}
	for df := 1; df < 200; df++ {
		if tCritical95(df+1) >= tCritical95(df) {
			t.Errorf("tCritical95 not strictly decreasing at df=%d", df)
		}
	}
	if tCritical95(0) != 0 {
		t.Error("df<1 must yield 0, not a panic")
	}
}

// Replicates distinguished by anything other than the seed must not fold
// together.
func TestFoldSeedsKeepsDistinctCellsApart(t *testing.T) {
	rs := replicateFixture()
	other := rs[0]
	other.Scenario.PerBotRate = 999
	other.Scenario.Label = "cell-a/seed=4"
	other.Scenario.Seed = 4
	folded := FoldSeeds(append(rs, other))
	if len(folded) != 3 {
		t.Fatalf("folded groups = %d, want 3 (rate change is a new cell)", len(folded))
	}
}

// A NaN rate equals no rate, so replicates that carry one fold into one
// group each, in order, and FoldSeeds does not look a group up by its key
// again.
func TestFoldSeedsNaNRateGroupsApart(t *testing.T) {
	rs := replicateFixture()[:3]
	for i := range rs {
		rs[i].Scenario.PerBotRate = math.NaN()
	}
	folded := FoldSeeds(rs)
	if len(folded) != 3 {
		t.Fatalf("folded groups = %d, want 3: NaN-rate scenarios compare unequal", len(folded))
	}
	for i, r := range folded {
		if got, want := r.Metric("m1_mean"), rs[i].Metric("m1"); r.Metric("replicates") != 1 || got != want {
			t.Errorf("group %d: replicates %v, m1_mean %v, want 1 and %v", i, r.Metric("replicates"), got, want)
		}
	}
}

// An infinite rate does not encode, but it compares equal: +Inf-rate
// replicates fold by their scenarios, not by their labels.
func TestFoldSeedsInfRateFoldsByScenario(t *testing.T) {
	rs := replicateFixture()[:3]
	for i := range rs {
		rs[i].Scenario.ClientRate = math.Inf(1)
	}
	rs[2].Scenario.BotCount++ // same label, another cell
	folded := FoldSeeds(rs)
	if len(folded) != 2 || folded[0].Metric("replicates") != 2 || folded[1].Metric("replicates") != 1 {
		t.Fatalf("folded %d groups %+v, want replicates 2 then 1", len(folded), folded)
	}
}

func TestReplicateSinkFoldsOnFlush(t *testing.T) {
	var buf bytes.Buffer
	sink := NewReplicate(NewCSV(&buf))
	for _, r := range replicateFixture() {
		if err := sink.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if buf.Len() != 0 {
		t.Fatal("ReplicateSink wrote before Flush")
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "m1_mean") || !strings.Contains(out, "m1_stddev") || !strings.Contains(out, "m1_ci95") {
		t.Errorf("folded CSV missing mean/stddev/ci95 rows:\n%s", out)
	}
	if strings.Contains(out, "seed=1") {
		t.Errorf("folded CSV still carries per-seed labels:\n%s", out)
	}
	// 2 groups × (1 replicates + 2 metrics × 3 stats) rows + header.
	if lines := strings.Count(out, "\n"); lines != 15 {
		t.Errorf("folded CSV has %d rows, want 15:\n%s", lines, out)
	}
	// A second Flush is a no-op for the buffer (nothing re-folded).
	before := buf.Len()
	if err := sink.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	if buf.Len() != before {
		t.Error("second Flush re-emitted rows")
	}
}
