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
// and re-pinned once, when hashVersion became "tcppuzzles-sweep-v3"
// (Scenario lost its adaptive-difficulty flag); they must never change
// while it stays there — new plugins get new hashes via their registered
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
		{"none", "synflood", "8955330b85109aa54822bfecc88694248a8d7ec0da1b78cf5fe1b40a7f565897"},
		{"none", "connflood", "c96392a43bf6311a703359c139c1c1680c55a571a1551360a6d0f158af1393ba"},
		{"none", "solutionflood", "100e2e7f0cd9a250863adb38ee8a6172328b85ceecfff6fc7cee5bdd23ae1e2b"},
		{"none", "replayflood", "389eccf126a0b11926bac39198b629948875be3c627bb991fdd9badf53afee3f"},
		{"cookies", "synflood", "0e99d5b268bdec07ba560115a711b504e8b1bbf1f870d9cf61fae7b60ce79396"},
		{"cookies", "connflood", "25e82c51c69928d73ddc6941e5924d65702c48b539687918246a2641fc988d12"},
		{"cookies", "solutionflood", "6a8b4c116f771aa6a995224384118b146b6cb6e11126309862050fb2d0da1d6a"},
		{"cookies", "replayflood", "1fc81944ae08c815159b11dac909bab65fee6dade6314057ddd0468fad241cde"},
		{"syncache", "synflood", "710650a0ef04b8fcd72e2b223e1cea6f2fbb6acd3f2d989aaef60730cbbb8e41"},
		{"syncache", "connflood", "f60dc557e8edaa96a861cbc154fbb07bfb03f80845bc4f62622bd27a64a82f7c"},
		{"syncache", "solutionflood", "5f459c3c5e672ee93ae23858b46943e596508f5094c7d27cf3738351d39cbacf"},
		{"syncache", "replayflood", "69d65c1ad064cc66c330be156bdc2fbaf2ac4888a2e25501ef97543486b416cb"},
		{"puzzles", "synflood", "debd8fe410f55013c9b92dcf121b9d608002a378e2c5cf531139cd700f62c774"},
		{"puzzles", "connflood", "49ae2614f873148ca0fbb4fb81a58cf518f0de3d8a58f5b89fd2124cd342a68d"},
		{"puzzles", "solutionflood", "e06adc1294db628cc81e5066c2a6c4795ecf771440a403d3fd1d3e98849a7bba"},
		{"puzzles", "replayflood", "9345f0b0a1694b7e9830b6b54e65a46a0957767bed5b1ec28c83aa7da5a2ebbc"},
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
	if got := sweep.Hash("golden", tiny); got != "087353e1cd45344e3a8e0c49a53fadb2b34e06f6cd636143889fac314902aba5" {
		t.Errorf("Hash(tiny) = %s, pinned 087353e1cd45344e3a8e0c49a53fadb2b34e06f6cd636143889fac314902aba5", got)
	}
	if got := sweep.Hash("golden", sweep.Scenario{}); got != "5400b194356109151193137b1dfefde7c7f17e8f249a1b574349fe7c5570df3d" {
		t.Errorf("Hash(zero) = %s, pinned 5400b194356109151193137b1dfefde7c7f17e8f249a1b574349fe7c5570df3d", got)
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
