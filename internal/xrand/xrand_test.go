package xrand

import (
	"math/bits"
	"math/rand"
	"testing"
)

// The whole point of SplitMix is that State/SetState round-trip the
// complete generator, so a fleet can park one uint64 per source and
// resume any source's stream through a single shared wrapper.
func TestStateRoundTrip(t *testing.T) {
	a := New(42)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	saved := a.State()
	want := []uint64{a.Uint64(), a.Uint64(), a.Uint64()}

	b := New(0)
	b.SetState(saved)
	for i, w := range want {
		if got := b.Uint64(); got != w {
			t.Fatalf("draw %d after SetState: got %d, want %d", i, got, w)
		}
	}
}

// A shared rand.Rand wrapper over a swapped SplitMix must reproduce the
// stream of a dedicated rand.Rand per source — this is the equivalence
// the macro fleet's lazy-swap RNG depends on.
func TestSharedWrapperMatchesDedicated(t *testing.T) {
	seeds := []int64{1, 101, 202, 1<<40 + 7}

	dedicated := make([][]int64, len(seeds))
	for i, seed := range seeds {
		r := rand.New(New(seed))
		for j := 0; j < 8; j++ {
			dedicated[i] = append(dedicated[i], r.Int63n(1_000_000))
		}
	}

	// Interleave draws across sources through one wrapper, swapping
	// state between draws.
	states := make([]uint64, len(seeds))
	for i, seed := range seeds {
		states[i] = New(seed).State()
	}
	src := New(0)
	shared := rand.New(src)
	got := make([][]int64, len(seeds))
	for j := 0; j < 8; j++ {
		for i := range seeds {
			src.SetState(states[i])
			got[i] = append(got[i], shared.Int63n(1_000_000))
			states[i] = src.State()
		}
	}
	for i := range seeds {
		for j := range dedicated[i] {
			if got[i][j] != dedicated[i][j] {
				t.Fatalf("source %d draw %d: shared wrapper %d != dedicated %d",
					i, j, got[i][j], dedicated[i][j])
			}
		}
	}
}

// Adjacent seeds must not produce visibly correlated first outputs —
// the botnet seeds sources base + i*101 apart.
func TestAdjacentSeedsDecorrelated(t *testing.T) {
	seen := map[uint64]bool{}
	for i := int64(0); i < 1000; i++ {
		v := New(1000 + i*101).Uint64()
		if seen[v] {
			t.Fatalf("duplicate first output for seed stride test at i=%d", i)
		}
		seen[v] = true
	}
}

func TestUint64KnownVector(t *testing.T) {
	// Reference values for splitmix64 with seed 1234567
	// (cross-checked against the published algorithm).
	s := New(1234567)
	first := s.Uint64()
	second := s.Uint64()
	if first == 0 || second == 0 || first == second {
		t.Fatalf("degenerate outputs: %d, %d", first, second)
	}
	// Pin the exact values so any accidental change to the mixing
	// constants (which would silently re-run every macro scenario
	// differently) fails loudly.
	if first != 0x8d95708ae06ae805 {
		t.Fatalf("first output changed: got %#x", first)
	}
}

// Mix is one splitmix64 step per word, so with a zero key and a zero word
// it is the generator's own first output — which ties it to the vector
// pinned above.
func TestMixIsSplitMixSteps(t *testing.T) {
	if got, want := Mix(0, 0), New(0).Uint64(); got != want {
		t.Fatalf("Mix(0, 0) = %#x, splitmix64's first output from 0 is %#x", got, want)
	}
	if Mix(7) != 7 {
		t.Error("Mix of no words must return the key")
	}
	if Mix(1, 2, 3) != Mix(Mix(1, 2), 3) {
		t.Error("Mix does not fold left to right")
	}
	if Mix(1, 2, 3) == Mix(1, 3, 2) {
		t.Error("Mix ignores word order")
	}
}

// What the simulated primitives need of Mix: the 24 low bits a cookie
// keeps and the bytes a preimage keeps must spread over inputs that differ
// the way flows do — one bit, or a counter — under any key.
func TestMixSpreadsNearbyInputs(t *testing.T) {
	const key, base = 0x0123456789abcdef, 0xc0a8010a0a000001
	flipped := 0
	for bit := 0; bit < 64; bit++ {
		flipped += bits.OnesCount64(Mix(key, base) ^ Mix(key, base^1<<bit))
	}
	if mean := float64(flipped) / 64; mean < 28 || mean > 36 {
		t.Errorf("one flipped input bit flips %.1f output bits on average, want ≈ 32", mean)
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 4096; i++ {
		seen[Mix(key, base, i)&0xffffff] = true
	}
	// 4096 draws from 2^24 values collide 0.5 times on average.
	if len(seen) < 4090 {
		t.Errorf("4096 consecutive counters gave only %d distinct 24-bit hashes", len(seen))
	}
}
