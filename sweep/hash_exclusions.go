package sweep

// scenarioHashExclusions pins every Scenario field that is deliberately
// excluded from the canonical result-cache hash (json:"-"), with the
// argument for why a cached result is still valid without it.
// TestHashExclusionsMatchScenarioTags keeps this map and the struct tags
// in lock-step: a field may leave the hash only by being pinned here with
// a reason, and a pinned entry must match a real excluded field — so no
// new knob can default into, or out of, sweep.Hash unreviewed. The bar for an entry is strict: the field must be a pure
// execution knob, proven results-neutral by a differential test named in
// its reason. See docs/DETERMINISM.md for the review checklist.
var scenarioHashExclusions = map[string]string{
	"Shards": "execution knob: metrics and sink bytes are byte-identical " +
		"at every shard count (TestShardDeterminismMatrix), so a cell " +
		"computed at any -shards value must hit for every other",
}
