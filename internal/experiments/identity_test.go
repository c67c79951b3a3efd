package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// identity says which identities of a canonical scenario a Scenario field
// enters: the grid cell sweep.Grid.Expand dedupes by, the result-cache key
// (sweep.Hash), the simulation a cell shares with others (simKey), the
// replicate group sweep.FoldSeeds folds it into, and the NDJSON record.
// reason says why a cached result stays valid without the field, and only
// a field outside the cache key carries one: the bar is a field that
// cannot change what a cell computes.
type identity struct {
	cell, cache, sim, group, output bool
	reason                          string
}

var everywhere = identity{cell: true, cache: true, sim: true, group: true, output: true}

// scenarioIdentities classifies every Scenario field. A new field fails
// TestScenarioIdentities until it is classified here.
var scenarioIdentities = map[string]identity{
	// Label is reported, not simulated; FoldSeeds strips its seed= parts.
	"Label":              {cell: true, cache: true, group: true, output: true},
	"Duration":           everywhere,
	"AttackStart":        everywhere,
	"AttackStop":         everywhere,
	"Bucket":             everywhere,
	"NumClients":         everywhere,
	"ClientRate":         everywhere,
	"RequestBytes":       everywhere,
	"ClientsSolve":       everywhere,
	"Defense":            everywhere,
	"Params":             everywhere, // in simKey only under a defense with Info.Puzzles
	"AlwaysChallenge":    everywhere,
	"Workers":            everywhere,
	"Backlog":            everywhere,
	"AcceptBacklog":      everywhere,
	"Attack":             everywhere,
	"BotCount":           everywhere,
	"PerBotRate":         everywhere,
	"BotsSolve":          everywhere,
	"BotMaxSolveBacklog": everywhere,
	"MacroSources":       everywhere,
	// Seed is what replicates differ in.
	"Seed": {cell: true, cache: true, sim: true, output: true},
	"Shards": {reason: "deprecated shim read by nothing (every scenario runs on " +
		"one event engine), so it cannot change what a cell computes"},
}

// perturb moves one field of a canonical scenario to another canonical
// value: strings gain a prefix (so a "seed=" label part stays one), bools
// flip, numbers and Params.K grow by one.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x" + v.String())
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Struct:
		perturb(v.Field(0))
	default:
		panic("perturb: unhandled kind " + v.Kind().String())
	}
}

// TestScenarioIdentities holds the table to the code: every Scenario
// field is classified, the json:"-" tags are exactly the fields outside
// the cache key, each of which says why, and moving a field moves the grid
// cell, the cache key, simKey, the FoldSeeds group and the NDJSON record
// exactly when the table says so.
func TestScenarioIdentities(t *testing.T) {
	base := sweep.Scenario{Label: "cell/seed=1", Seed: 1}.Defaults()
	record := func(sc sweep.Scenario) string {
		var b bytes.Buffer
		if err := sweep.NewNDJSON(&b).Write(sweep.Result{Experiment: "exp", Scenario: sc}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	point := func(sc sweep.Scenario) sweep.Point {
		return sweep.Point{Label: sc.Label, Set: func(c *sweep.Scenario) { *c = sc }}
	}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		want, ok := scenarioIdentities[f.Name]
		if !ok {
			t.Errorf("Scenario.%s is not classified in scenarioIdentities", f.Name)
			continue
		}
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); (name == "-") == want.cache {
			t.Errorf("Scenario.%s: json tag %q, but the table has cache=%v", f.Name, name, want.cache)
		}
		if reason := strings.TrimSpace(want.reason); (reason == "") != want.cache {
			t.Errorf("Scenario.%s: cache=%v with reason %q; exactly the fields outside the cache key give one",
				f.Name, want.cache, reason)
		}
		moved := base
		perturb(reflect.ValueOf(&moved).Elem().Field(i))
		cells := sweep.Grid{Axes: []sweep.Axis{sweep.Variants("cell", point(base), point(moved))}}.Expand(nil)
		folded := sweep.FoldSeeds([]sweep.Result{{Experiment: "exp", Scenario: base}, {Experiment: "exp", Scenario: moved}})
		got := identity{
			cell:   len(cells) == 2,
			cache:  sweep.Hash("exp", moved) != sweep.Hash("exp", base),
			sim:    simKey(moved) != simKey(base),
			group:  len(folded) == 2,
			output: record(moved) != record(base),
			reason: want.reason,
		}
		if got != want {
			t.Errorf("Scenario.%s enters %+v, the table says %+v", f.Name, got, want)
		}
	}
	for name := range scenarioIdentities {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("scenarioIdentities classifies %s, which is no Scenario field", name)
		}
	}

	// simKey masks Params under a defense without Info.Puzzles.
	cookies := base
	cookies.Defense = DefenseCookies
	moved := cookies
	moved.Params.M++
	if simKey(moved) != simKey(cookies) {
		t.Error("simKey reads Params under cookies, a defense without Info.Puzzles")
	}
}
