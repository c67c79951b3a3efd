package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
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

// Pools for fillRandom, by kind: each holds the values on which a
// hand-written encoder and encoding/json could part.
var (
	poolStrings = []string{"", "a", "puzzles", "<&>", "a\x00b", "\x1f\t\n\r", "\u2028\u2029", "\xff", "a\xfe\xffb",
		"\"quote\" \\", "é", "\ufffd", "\u007f", "\U0001F600"}
	poolInts = []int64{0, 1, -1, 3, 17, 1 << 40, -1 << 40, math.MaxInt64, math.MinInt64,
		int64(-time.Second), int64(600 * time.Second)}
	poolFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 500, 1e-7, 1e21, -1e21, 123456.789,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
)

// fillRandom sets every settable field of v, recursively, from the pools,
// each field independently zero a quarter of the time. A kind it has no
// pool for fails the test, so a new Scenario field of a new kind is
// noticed rather than left at zero.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value) {
	if rng.Intn(4) == 0 {
		v.SetZero()
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(pick(rng, poolStrings))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(pick(rng, poolInts))
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Float64:
		v.SetFloat(pick(rng, poolFloats))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(t, rng, v.Field(i))
		}
	default:
		t.Fatalf("fillRandom has no values for a %s field", v.Type())
	}
}

// TestEncodeScenarioMatchesJSON is the differential test of encodeScenario
// against its specification, json.Marshal: over random scenarios with
// every field set by reflection, the bytes and whether an error is
// returned agree, and an error reads as json's. A Scenario field the
// encoder does not write fails it.
func TestEncodeScenarioMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var errs, macro, shards int
	for i := 0; i < 20000; i++ {
		var sc Scenario
		fillRandom(t, rng, reflect.ValueOf(&sc).Elem())
		got, gotErr := encodeScenario(sc)
		want, wantErr := json.Marshal(sc)
		if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("scenario %#v:\nencodeScenario %s, %v\njson.Marshal   %s, %v", sc, got, gotErr, want, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("scenario %#v: error %q, json's %q", sc, gotErr, wantErr)
			}
			errs++
		}
		if sc.MacroSources != 0 {
			macro++
		}
		if sc.Shards != 0 {
			shards++
		}
	}
	if errs == 0 || macro == 0 || shards == 0 {
		t.Fatalf("errors %d, MacroSources set %d, Shards set %d: the pools test nothing", errs, macro, shards)
	}
}
