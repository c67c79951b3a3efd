package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The pools randomScenario draws from are small, so random cells often
// coincide, and they hold every value on which a struct comparison and an
// encoding/json comparison could part: ±0, NaN and ±Inf rates (json
// rejects the last three), invalid UTF-8 (json maps each bad byte to
// U+FFFD), HTML-escaped runes, Shards (json:"-"), seed= labels and values
// Defaults fills in.
var (
	poolRates   = []float64{0, math.Copysign(0, -1), 1, 500, math.NaN(), math.Inf(1), math.Inf(-1)}
	poolLabels  = []string{"", "a", "a/seed=1", "a/seed=2", "seed=1", "seed=2/b", "\xff", "\xfe", "a\xff\xfe", "\ufffd", "<&>", " "}
	poolDefense = []Defense{"", DefensePuzzles, DefenseNone, "\xff", "\xfe"}
	poolAttack  = []Attack{"", AttackConnFlood, "\xfe", "\xff"}
)

func pick[T any](rng *rand.Rand, pool []T) T { return pool[rng.Intn(len(pool))] }

// randomScenario sets every field but Label from the pools.
func randomScenario(rng *rand.Rand) Scenario {
	return Scenario{
		ClientRate:   pick(rng, poolRates),
		PerBotRate:   pick(rng, poolRates),
		Defense:      pick(rng, poolDefense),
		Attack:       pick(rng, poolAttack),
		MacroSources: pick(rng, []int{0, 3}),
		Seed:         pick(rng, []int64{0, 1, 2}),
		Shards:       pick(rng, []int{0, 1, 2}),
		BotCount:     pick(rng, []int{0, 10, NoBotnet}),
	}
}

// jsonKeyedDedupe is Expand's dedupe as it was: keyed by the encoding of
// each cell's canonical form, keeping every cell that does not encode.
func jsonKeyedDedupe(cells []Scenario) []Scenario {
	seen := map[string]bool{}
	var out []Scenario
	for _, c := range cells {
		key, err := json.Marshal(c.Defaults())
		if err != nil {
			out = append(out, c)
			continue
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, c)
		}
	}
	return out
}

// TestExpandDedupeMatchesEncoding is the differential test of Expand's
// struct-keyed dedupe against the encoding-keyed one it replaced, over
// random cells: both keep exactly the same cells in the same order.
func TestExpandDedupeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	merged := 0
	for trial := 0; trial < 500; trial++ {
		var points []Point
		var cells []Scenario
		for i := 0; i < 30; i++ {
			sc, label := randomScenario(rng), pick(rng, poolLabels)
			points = append(points, Point{Label: label, Set: func(c *Scenario) { *c = sc }})
			sc.Label = label
			cells = append(cells, sc)
		}
		got := Grid{Axes: []Axis{Variants("cell", points...)}}.Expand(nil)
		want := jsonKeyedDedupe(cells)
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("trial %d: Expand kept\n%s\nthe encoding-keyed dedupe kept\n%s", trial, g, w)
		}
		merged += len(cells) - len(got)
	}
	if merged == 0 {
		t.Fatal("no trial merged a cell; the pools test nothing")
	}

	// +Inf is the case a struct key alone gets wrong: equal under ==, but
	// json rejects it, so every such cell is kept.
	inf := Point{Set: func(c *Scenario) { c.PerBotRate = math.Inf(1) }}
	if got := (Grid{Axes: []Axis{Variants("inf", inf, inf)}}).Expand(nil); len(got) != 2 {
		t.Errorf("Expand merged two +Inf-rate cells: %d kept, want 2", len(got))
	}
}

// jsonKeyedFold is FoldSeeds' grouping as it was: the replicate count of
// each group, in first-appearance order.
func jsonKeyedFold(results []Result) []float64 {
	index := map[string]int{}
	var counts []float64
	for _, r := range results {
		sc := r.Scenario
		sc.Seed = 0
		sc.Label = stripSeedLabel(sc.Label)
		b, err := json.Marshal(sc)
		if err != nil {
			b = []byte(sc.Label)
		}
		key := r.Experiment + "\x00" + string(b)
		if _, ok := index[key]; !ok {
			index[key] = len(counts)
			counts = append(counts, 0)
		}
		counts[index[key]]++
	}
	return counts
}

// TestFoldSeedsGroupsMatchEncoding is the differential test of FoldSeeds'
// grouping against the encoding-keyed one, over random results.
func TestFoldSeedsGroupsMatchEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	folded := 0
	for trial := 0; trial < 500; trial++ {
		var results []Result
		for i := 0; i < 30; i++ {
			sc := randomScenario(rng)
			sc.Label = pick(rng, poolLabels)
			results = append(results, Result{
				Experiment: pick(rng, []string{"e1", "e2"}),
				Scenario:   sc,
				Metrics:    []Metric{{Name: "m", Value: 1}},
			})
		}
		want := jsonKeyedFold(results)
		got := FoldSeeds(results)
		counts := make([]float64, len(got))
		for i, r := range got {
			counts[i] = r.Metric("replicates")
		}
		if fmt.Sprint(counts) != fmt.Sprint(want) {
			t.Fatalf("trial %d: FoldSeeds group sizes %v, the encoding-keyed fold %v", trial, counts, want)
		}
		folded += len(results) - len(got)
	}
	if folded == 0 {
		t.Fatal("no trial folded a result; the pools test nothing")
	}
}
