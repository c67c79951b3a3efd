package experiments

import (
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestNewPluginsGetDistinctHashes proves that every defense×attack pair
// has its own cache key: plugin names are part of the canonical Scenario,
// so a shared cache can never serve one plugin's result for another.
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
