// Package xrand provides a compact deterministic random source for
// macro-source populations. The standard library's rand.NewSource costs
// ~4.9 KB of shuffled-feedback state per instance — fine for tens of
// bots, fatal for a million spoofed sources. SplitMix implements
// math/rand.Source64 in exactly 8 bytes of state (splitmix64, Steele et
// al., OOPSLA 2014), and exposes that state so a fleet can keep one
// uint64 per source in a flat array and swap it through a single shared
// rand.Rand wrapper.
//
// splitmix64's output function applies full avalanche to the counter, so
// even adjacent seeds (the botnet derives seed_i = base + i*101) produce
// uncorrelated streams.
package xrand

// SplitMix is a splitmix64 generator: state advances by a fixed odd
// constant and each output mixes the counter through two xor-multiply
// rounds. It implements math/rand.Source and math/rand.Source64.
type SplitMix struct {
	state uint64
}

// New returns a SplitMix seeded with the given value. The raw seed is
// the initial state: Stream(seed) is fully determined by it, and
// State()/SetState round-trip it exactly.
func New(seed int64) *SplitMix { return &SplitMix{state: uint64(seed)} }

// Uint64 advances the state and returns the next mixed output.
func (s *SplitMix) Uint64() uint64 {
	s.state += golden
	return avalanche(s.state)
}

// golden is splitmix64's state increment, 2^64 divided by the golden
// ratio.
const golden = 0x9E3779B97F4A7C15

// avalanche is splitmix64's output function: two xor-multiply rounds
// under which every input bit reaches every output bit.
func avalanche(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1E4B71D9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Mix is a keyed 64-bit mix: it folds words into key one at a time, each
// through one splitmix64 step, so the result depends on every word and on
// their order. It is what the simulator derives challenge preimages and
// cookie hashes from where the real protocol runs SHA-256 — fast and well
// spread, NOT a cryptographic MAC.
func Mix(key uint64, words ...uint64) uint64 {
	for _, w := range words {
		key = avalanche((key ^ w) + golden)
	}
	return key
}

// Int63 returns the top 63 bits of the next output, satisfying
// math/rand.Source.
func (s *SplitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed resets the generator to the given seed (math/rand.Source).
func (s *SplitMix) Seed(seed int64) { s.state = uint64(seed) }

// State returns the current 8-byte state, the complete generator.
func (s *SplitMix) State() uint64 { return s.state }

// SetState restores a state previously read with State.
func (s *SplitMix) SetState(v uint64) { s.state = v }
