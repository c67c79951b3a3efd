package sweep

import (
	"reflect"
	"strings"
	"testing"
)

// scenarioHashExclusions pins every Scenario field that is deliberately
// excluded from the canonical result-cache hash (json:"-"), with the
// argument for why a cached result is still valid without it.
// TestHashExclusionsMatchScenarioTags keeps this map and the struct tags
// in lock-step: a field may leave the hash only by being pinned here with
// a reason, and a pinned entry must match a real excluded field — so no
// new knob can default into, or out of, sweep.Hash unreviewed. It lives
// with the tests because only they read it. The bar for an entry is
// strict: the field must be a pure execution knob, proven results-neutral
// by a differential test named in its reason. See docs/DETERMINISM.md for
// the review checklist.
var scenarioHashExclusions = map[string]string{
	"Shards": "deprecated shim read by nothing (every scenario runs on " +
		"one event engine), so it cannot change what a cell computes",
}

// TestHashExclusionsMatchScenarioTags holds the cache-hash exclusion
// contract: the pinned exclusion set and the json:"-" tags on Scenario
// must agree exactly, and every exclusion must say why it is sound.
func TestHashExclusionsMatchScenarioTags(t *testing.T) {
	excluded := map[string]bool{}
	rt := reflect.TypeOf(Scenario{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			excluded[f.Name] = true
			if _, ok := scenarioHashExclusions[f.Name]; !ok {
				t.Errorf("Scenario.%s is json:\"-\" but not pinned in scenarioHashExclusions", f.Name)
			}
		}
	}
	for name, reason := range scenarioHashExclusions {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("exclusion %q names no Scenario field", name)
		}
		if !excluded[name] {
			t.Errorf("exclusion %q pinned but Scenario.%s is not json:\"-\"", name, name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("exclusion %q has no reason", name)
		}
	}
}

// TestHashInsensitiveToExcludedFields proves the pinned exclusions hold at
// the hash level: toggling an excluded field never changes a cell's cache
// key, and touching any hashed field always does.
func TestHashInsensitiveToExcludedFields(t *testing.T) {
	base := Scenario{Label: "cell", Seed: 7}
	h0 := Hash("exp", base)

	for name := range scenarioHashExclusions {
		set := base
		reflect.ValueOf(&set).Elem().FieldByName(name).SetInt(8)
		if got := Hash("exp", set); got != h0 {
			t.Errorf("%s entered the cache hash: %s != %s", name, got, h0)
		}
	}

	seeded := base
	seeded.Seed = 8
	if got := Hash("exp", seeded); got == h0 {
		t.Error("Seed is hashed; changing it must change the key")
	}
}
