package sweep

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// pinVersion is the version line the legacy pins below are computed
// under: the last hand-kept one, so they are the very keys its caches
// used. It is fixed, so the pins move only when the canonical Scenario
// encoding moves, never on a ledger re-bless.
const pinVersion = "tcppuzzles-sweep-v4"

// pinnedCells are the cells TestLegacyCacheHashesPinned pins, in order:
// every paper defense×attack pair, a fuller tiny-scale scenario (solving
// clients and bots, smart-solver backlog) and the all-defaults scenario.
func pinnedCells() []Scenario {
	var cells []Scenario
	for _, d := range []Defense{DefenseNone, DefenseCookies, DefenseSYNCache, DefensePuzzles} {
		for _, a := range []Attack{AttackSYNFlood, AttackConnFlood, AttackSolutionFlood, AttackReplayFlood} {
			cells = append(cells, Scenario{Defense: d, Attack: a, Seed: 7})
		}
	}
	tiny := Scale{
		Duration: 60 * time.Second, AttackStart: 15 * time.Second, AttackStop: 45 * time.Second,
		NumClients: 4, ClientRate: 8, BotCount: 4, PerBotRate: 80,
		Backlog: 128, AcceptBacklog: 128, Workers: 48, Seed: 42,
	}
	return append(cells,
		tiny.Apply(Scenario{Label: "x", ClientsSolve: true, BotsSolve: true, BotMaxSolveBacklog: 2 * time.Second}),
		Scenario{})
}

// TestLegacyCacheHashesPinned is the referee for the canonical Scenario
// encoding: every pinned cell must hash to exactly its pinned value under
// pinVersion. A move here means every cache key moved for a reason other
// than the ledger, so it must be deliberate.
func TestLegacyCacheHashesPinned(t *testing.T) {
	pins := []string{
		"1f6f99eff5503f56cadd40820073aeb415949a1bf54fd03d43988fb693639eec", // none×synflood
		"087c896bcd2c1371922c424d92f3f82ab20c2dfe5f2b6e42b12747b3ba44a71f", // none×connflood
		"e27c7e10f6d2a11e0210e70a3331b778d1c411c3c61b29d15b96069481d8d557", // none×solutionflood
		"23bbf021c3b1dfabbd9413017d4f749fc60b1da968b99a0e98c2a8feb270c083", // none×replayflood
		"0d515a1cd6261a5f5f9f44e4b2043d4a977edeadb1fdfd83c9f0c2ae1a09e355", // cookies×synflood
		"9caf888e46b834d29f1da90fc20433edc7a164f39386210c246b442d95c0dbfa", // cookies×connflood
		"83f4f4ba6defed5b8bdfe86bb5af6ce678c5cac24a583b5e6dc01a836218f24a", // cookies×solutionflood
		"e3a5a47f352b1625fcf4b3e2d59956b9bdb554be5707ab386c13ff9c3cabce8c", // cookies×replayflood
		"07e6b3deebbc8efb5398f7dc2340b2a244e14ff5a703d65ca02915546bf84548", // syncache×synflood
		"b73bf39807f184d3261400b1f3467982d7b40410e4d7ffb4c61b7d541bf3393e", // syncache×connflood
		"4936fea370c5a3c7fde649324fc9efbcf18277b754548e09322f892096aeea5d", // syncache×solutionflood
		"9f09c401645d3437c80710881772ed333b60d11f23a3579d724d2010666a6373", // syncache×replayflood
		"4f8e261e5727e21bbdfb8e2fe6176de388ebb703dfa10b59e920f07cea00edb6", // puzzles×synflood
		"992daeae1de0103a75337323df9f9e8d84e43a341816299630197ebbb9dcf90c", // puzzles×connflood
		"85c3a9e052e0b2ff69bbed81d47505eac1fdfb1339519e6a700b0ca31c024fe9", // puzzles×solutionflood
		"b7c5a535a3b7f26556e59dc75f11b705c8fb634900fbd56d3a4c54b2959b459d", // puzzles×replayflood
		"5d5e1397c34bb6adb719601af09c302433dd3c5090d0d50c11bdaa02efa05cd6", // tiny
		"5bc1ebfc31a7507c2fa99cdfffe44e3c8a410f74fa1f659bfcbb9b739e5b345c", // all defaults
	}
	for i, sc := range pinnedCells() {
		if got := hashAt(pinVersion, "golden", sc); got != pins[i] {
			t.Errorf("hash of %s×%s (label %q) = %s, pinned %s", sc.Defense, sc.Attack, sc.Label, got, pins[i])
		}
	}
}

// TestHashVersionIsLedgerDigest checks the one cache-identity rule: the
// version line of every key is the SHA-256 of the output ledger file,
// taken once per process, and a ledger one byte away moves every key.
func TestHashVersionIsLedgerDigest(t *testing.T) {
	onDisk, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ledger, onDisk) {
		t.Fatal("embedded ledger differs from testdata/experiments.golden")
	}
	cells := pinnedCells()
	keys := make([]string, len(cells))
	for i, sc := range cells {
		keys[i] = Hash("golden", sc)
		if want := hashAt(digest(onDisk), "golden", sc); keys[i] != want {
			t.Errorf("Hash(%s×%s) = %s, want %s under the ledger's digest", sc.Defense, sc.Attack, keys[i], want)
		}
	}

	// Flip one byte of the embedded ledger itself. The keys stay put,
	// because Hash reads the digest taken at package init; the digest of
	// the flipped bytes moves every key.
	ledger[len(ledger)/2] ^= 1
	defer func() { ledger[len(ledger)/2] ^= 1 }()
	flipped := digest(ledger)
	for i, sc := range cells {
		if Hash("golden", sc) != keys[i] {
			t.Errorf("Hash(%s×%s) followed an edit of the ledger after init", sc.Defense, sc.Attack)
		}
		if hashAt(flipped, "golden", sc) == keys[i] {
			t.Errorf("Hash(%s×%s) did not move with a one-byte ledger change", sc.Defense, sc.Attack)
		}
	}
}
