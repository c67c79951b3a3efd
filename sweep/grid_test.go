package sweep

import (
	"math"
	"testing"
	"time"
)

func testScale() Scale {
	return Scale{
		Duration: 60 * time.Second, AttackStart: 15 * time.Second, AttackStop: 45 * time.Second,
		NumClients: 4, ClientRate: 8, BotCount: 4, PerBotRate: 80,
		Backlog: 128, AcceptBacklog: 128, Workers: 48, Seed: 42,
	}
}

func TestExpandProductOrderAndLabels(t *testing.T) {
	g := Grid{
		Base: Scenario{Label: "base"},
		Axes: []Axis{Ks(1, 2), Ms(12, 17)},
	}
	cells := g.Expand(nil)
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	wantLabels := []string{"base/k=1/m=12", "base/k=1/m=17", "base/k=2/m=12", "base/k=2/m=17"}
	for i, want := range wantLabels {
		if cells[i].Label != want {
			t.Errorf("cell %d label = %q, want %q", i, cells[i].Label, want)
		}
	}
	// Row-major: the last axis varies fastest.
	if cells[0].Params.K != 1 || cells[0].Params.M != 12 ||
		cells[3].Params.K != 2 || cells[3].Params.M != 17 {
		t.Errorf("cells out of order: %+v", cells)
	}
	// Per-field Params defaulting must complete the tuple (l = 32).
	if cells[0].Defaults().Params.L != 32 {
		t.Errorf("axis-set Params missing default L: %+v", cells[0].Defaults().Params)
	}
}

func TestExpandDeduplicatesIdenticalCells(t *testing.T) {
	g := Grid{Axes: []Axis{Seeds(1, 2, 1)}}
	cells := g.Expand(nil)
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2 after dedup", len(cells))
	}
	if cells[0].Seed != 1 || cells[1].Seed != 2 {
		t.Errorf("dedup changed order: %+v", cells)
	}
}

// Two labels that differ only in invalid UTF-8 bytes are two cells, though
// json encodes each bad byte as U+FFFD and so gives both one cache key.
func TestExpandKeepsInvalidUTF8LabelsApart(t *testing.T) {
	cells := Grid{Axes: []Axis{Variants("label", Point{Label: "a\xff"}, Point{Label: "a\xfe"})}}.Expand(nil)
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2: labels a\\xff and a\\xfe are distinct", len(cells))
	}
	if h0, h1 := Hash("exp", cells[0]), Hash("exp", cells[1]); h0 != h1 {
		t.Errorf("cache keys %s and %s differ; json encodes both labels alike", h0, h1)
	}
}

// Two cells whose canonical scenarios carry the same +Inf rate compare
// equal, so they are one cell, though json cannot encode either.
func TestExpandDedupesInfRate(t *testing.T) {
	inf := Point{Set: func(c *Scenario) { c.PerBotRate = math.Inf(1) }}
	cells := Grid{Axes: []Axis{Variants("inf", inf, inf)}}.Expand(nil)
	if len(cells) != 1 || !math.IsInf(cells[0].PerBotRate, 1) {
		t.Fatalf("cells = %+v, want one +Inf-rate cell", cells)
	}
}

func TestExpandAxesOverrideScale(t *testing.T) {
	// The scale rescales the base deployment, but an axis coordinate —
	// here the botnet shape — always wins over the scale's value.
	scale := testScale()
	g := Grid{
		Base: Scenario{ClientsSolve: true},
		Axes: []Axis{BotCounts(9), PerBotRates(123)},
	}
	cells := g.Expand(&scale)
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(cells))
	}
	if cells[0].BotCount != 9 || cells[0].PerBotRate != 123 {
		t.Errorf("axis lost to scale: %+v", cells[0])
	}
	if cells[0].NumClients != scale.NumClients || cells[0].Duration != scale.Duration {
		t.Errorf("scale not applied to base: %+v", cells[0])
	}
}

func TestExpandPreservesSentinels(t *testing.T) {
	scale := testScale()
	g := Grid{Base: Scenario{BotCount: NoBotnet, Workers: -1}, Axes: []Axis{Seeds(7)}}
	cells := g.Expand(&scale)
	if cells[0].BotCount != NoBotnet || cells[0].Workers != -1 {
		t.Errorf("sentinels lost: %+v", cells[0])
	}
}

func TestExpandVariantsAndNilSet(t *testing.T) {
	g := Grid{
		Axes: []Axis{Variants("mix",
			Point{Label: "(NA,NC)"},
			Point{Label: "(SA,SC)", Set: func(sc *Scenario) { sc.ClientsSolve = true; sc.BotsSolve = true }},
		)},
	}
	cells := g.Expand(nil)
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Label != "(NA,NC)" || cells[0].ClientsSolve {
		t.Errorf("nil-Set point mutated scenario: %+v", cells[0])
	}
	if !cells[1].ClientsSolve || !cells[1].BotsSolve {
		t.Errorf("variant Set not applied: %+v", cells[1])
	}
}

func TestDefaultsFillParamsPerField(t *testing.T) {
	sc := Scenario{}
	sc.Params.K = 1
	got := sc.Defaults().Params
	if got.K != 1 || got.M != 17 || got.L != 32 {
		t.Errorf("partial Params defaulted to %+v, want {1 17 32}", got)
	}
}
