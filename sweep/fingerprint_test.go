package sweep

import "testing"

// TestFingerprintChangesHash pins the fingerprint mechanics with synthetic
// strategy names (the real registrations live in packages defense/attack,
// which this package must not import): no fingerprint leaves the hash
// alone, registering one changes it, bumping it changes it again, and
// defense/attack fingerprints are independent dimensions.
func TestFingerprintChangesHash(t *testing.T) {
	// The registries are process-wide: drop the synthetic names again so
	// a repeated run (go test -count=2) starts from the same state.
	t.Cleanup(func() {
		fpMu.Lock()
		defer fpMu.Unlock()
		delete(defenseFPs, "fp-test-defense")
		delete(attackFPs, "fp-test-attack")
	})
	scD := Scenario{Defense: "fp-test-defense", Seed: 3}
	base := Hash("exp", scD)
	if Hash("exp", scD) != base {
		t.Fatal("hash not stable")
	}
	RegisterDefenseFingerprint("fp-test-defense", "v1")
	v1 := Hash("exp", scD)
	if v1 == base {
		t.Error("registering a defense fingerprint did not change the hash")
	}
	RegisterDefenseFingerprint("fp-test-defense", "v2")
	if v2 := Hash("exp", scD); v2 == v1 || v2 == base {
		t.Error("bumping the defense fingerprint did not mint a new hash")
	}

	scA := Scenario{Attack: "fp-test-attack", Seed: 3}
	baseA := Hash("exp", scA)
	RegisterAttackFingerprint("fp-test-attack", "v1")
	if Hash("exp", scA) == baseA {
		t.Error("registering an attack fingerprint did not change the hash")
	}

	// Empty registrations are ignored: the legacy-identity escape hatch.
	RegisterDefenseFingerprint("fp-test-untouched", "")
	if DefenseFingerprint("fp-test-untouched") != "" {
		t.Error("empty fingerprint was stored")
	}

	// Unrelated scenarios (different defense name) are untouched by the
	// registrations above.
	other := Scenario{Defense: "fp-test-other", Seed: 3}
	before := Hash("exp", other)
	RegisterDefenseFingerprint("fp-test-defense", "v3")
	if Hash("exp", other) != before {
		t.Error("fingerprint registration leaked into an unrelated defense's hash")
	}
}
