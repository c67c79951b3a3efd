package experiments

import (
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestLegacyCacheHashesPinned is the refactor referee for cache identity:
// every paper defense×attack cell must hash to exactly its pinned value,
// or shared result caches silently recompute (or worse, a format change
// goes unnoticed). The hex values were generated by the pre-registry code
// and re-pinned when hashVersion became "tcppuzzles-sweep-v3" (Scenario
// lost its adaptive-difficulty flag) and again at "tcppuzzles-sweep-v4"
// (every botnet moved to one population and one RNG stream); they must
// never change while it stays there — new plugins get new hashes via their registered
// fingerprints instead (see TestFingerprintChangesHash in sweep).
//
// This package (via serversim/attacksim) links in the defense and attack
// registries, so the test also proves plugin registration leaves legacy
// hashes untouched.
func TestLegacyCacheHashesPinned(t *testing.T) {
	golden := []struct {
		defense sweep.Defense
		attack  sweep.Attack
		hash    string
	}{
		{"none", "synflood", "1f6f99eff5503f56cadd40820073aeb415949a1bf54fd03d43988fb693639eec"},
		{"none", "connflood", "087c896bcd2c1371922c424d92f3f82ab20c2dfe5f2b6e42b12747b3ba44a71f"},
		{"none", "solutionflood", "e27c7e10f6d2a11e0210e70a3331b778d1c411c3c61b29d15b96069481d8d557"},
		{"none", "replayflood", "23bbf021c3b1dfabbd9413017d4f749fc60b1da968b99a0e98c2a8feb270c083"},
		{"cookies", "synflood", "0d515a1cd6261a5f5f9f44e4b2043d4a977edeadb1fdfd83c9f0c2ae1a09e355"},
		{"cookies", "connflood", "9caf888e46b834d29f1da90fc20433edc7a164f39386210c246b442d95c0dbfa"},
		{"cookies", "solutionflood", "83f4f4ba6defed5b8bdfe86bb5af6ce678c5cac24a583b5e6dc01a836218f24a"},
		{"cookies", "replayflood", "e3a5a47f352b1625fcf4b3e2d59956b9bdb554be5707ab386c13ff9c3cabce8c"},
		{"syncache", "synflood", "07e6b3deebbc8efb5398f7dc2340b2a244e14ff5a703d65ca02915546bf84548"},
		{"syncache", "connflood", "b73bf39807f184d3261400b1f3467982d7b40410e4d7ffb4c61b7d541bf3393e"},
		{"syncache", "solutionflood", "4936fea370c5a3c7fde649324fc9efbcf18277b754548e09322f892096aeea5d"},
		{"syncache", "replayflood", "9f09c401645d3437c80710881772ed333b60d11f23a3579d724d2010666a6373"},
		{"puzzles", "synflood", "4f8e261e5727e21bbdfb8e2fe6176de388ebb703dfa10b59e920f07cea00edb6"},
		{"puzzles", "connflood", "992daeae1de0103a75337323df9f9e8d84e43a341816299630197ebbb9dcf90c"},
		{"puzzles", "solutionflood", "85c3a9e052e0b2ff69bbed81d47505eac1fdfb1339519e6a700b0ca31c024fe9"},
		{"puzzles", "replayflood", "b7c5a535a3b7f26556e59dc75f11b705c8fb634900fbd56d3a4c54b2959b459d"},
	}
	for _, g := range golden {
		sc := sweep.Scenario{Defense: g.defense, Attack: g.attack, Seed: 7}
		if got := sweep.Hash("golden", sc); got != g.hash {
			t.Errorf("Hash(%s×%s) = %s, pinned %s", g.defense, g.attack, got, g.hash)
		}
	}

	// A fuller scenario (tiny scale, solving clients/bots, smart-solver
	// backlog) and the all-defaults scenario, pinned the same way.
	tiny := TinyScale().Apply(sweep.Scenario{
		Label: "x", ClientsSolve: true, BotsSolve: true, BotMaxSolveBacklog: 2 * time.Second,
	})
	if got := sweep.Hash("golden", tiny); got != "5d5e1397c34bb6adb719601af09c302433dd3c5090d0d50c11bdaa02efa05cd6" {
		t.Errorf("Hash(tiny) = %s, pinned 5d5e1397c34bb6adb719601af09c302433dd3c5090d0d50c11bdaa02efa05cd6", got)
	}
	if got := sweep.Hash("golden", sweep.Scenario{}); got != "5bc1ebfc31a7507c2fa99cdfffe44e3c8a410f74fa1f659bfcbb9b739e5b345c" {
		t.Errorf("Hash(zero) = %s, pinned 5bc1ebfc31a7507c2fa99cdfffe44e3c8a410f74fa1f659bfcbb9b739e5b345c", got)
	}
}

// TestNewPluginsGetDistinctHashes proves the flip side of the pinning:
// cells selecting the new plugins hash differently from every legacy cell
// (their names and fingerprints are new identities), so a shared cache
// can never serve a legacy result for a new defense or vice versa.
func TestNewPluginsGetDistinctHashes(t *testing.T) {
	seen := map[string]string{}
	for _, d := range sweep.KnownDefenses() {
		for _, a := range sweep.KnownAttacks() {
			sc := sweep.Scenario{Defense: d, Attack: a, Seed: 7}
			h := sweep.Hash("golden", sc)
			if prev, dup := seen[h]; dup {
				t.Errorf("hash collision between %s×%s and %s", d, a, prev)
			}
			seen[h] = string(d) + "×" + string(a)
		}
	}
}
