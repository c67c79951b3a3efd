package puzzle

import (
	"fmt"
	"math"
)

const (
	// MinDifficultyBits is the smallest accepted per-solution difficulty.
	MinDifficultyBits = 1
	// MaxDifficultyBits is the largest accepted per-solution difficulty.
	// Difficulties beyond 64 bits are far outside any practical operating
	// point (2^63 hashes per solution) and would overflow work estimates.
	MaxDifficultyBits = 64
	// MinPreimageBits is the smallest accepted preimage/solution length.
	MinPreimageBits = 8
	// MaxPreimageBits is the largest accepted preimage/solution length. The
	// wire format (package tcpopt) encodes the length in one byte of bits,
	// and the preimage is a SHA-256 prefix, so 248 bits (31 bytes) keeps the
	// whole option block within the TCP option space.
	MaxPreimageBits = 248
	// DefaultPreimageBits is the default preimage and solution length.
	DefaultPreimageBits = 64
)

// Params describes a puzzle difficulty setting, the tuple (k, m) of the
// paper plus the preimage/solution bit length l.
type Params struct {
	// K is the number of solutions the client must produce (k in the paper).
	K uint8
	// M is the number of difficulty bits per solution (m in the paper).
	M uint8
	// L is the preimage and per-solution length in bits. It must be a
	// multiple of 8 and at least M.
	L uint8
}

// DefaultParams returns the paper's Nash-equilibrium example difficulty,
// (k, m) = (2, 17) ... except m must fit the preimage; the worked example in
// §4.4 uses m = 17 with l = 64.
func DefaultParams() Params {
	return Params{K: 2, M: 17, L: DefaultPreimageBits}
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.K == 0:
		return fmt.Errorf("puzzle: k must be positive: %w", ErrInvalidParams)
	case p.M < MinDifficultyBits || int(p.M) > MaxDifficultyBits:
		return fmt.Errorf("puzzle: m=%d outside [%d,%d]: %w",
			p.M, MinDifficultyBits, MaxDifficultyBits, ErrInvalidParams)
	case p.L < MinPreimageBits || int(p.L) > MaxPreimageBits:
		return fmt.Errorf("puzzle: l=%d outside [%d,%d]: %w",
			p.L, MinPreimageBits, MaxPreimageBits, ErrInvalidParams)
	case p.L%8 != 0:
		return fmt.Errorf("puzzle: l=%d not a multiple of 8: %w", p.L, ErrInvalidParams)
	case p.M > p.L:
		return fmt.Errorf("puzzle: m=%d exceeds preimage length l=%d: %w",
			p.M, p.L, ErrInvalidParams)
	}
	return nil
}

// SolutionBytes returns the length in bytes of the preimage and of each
// solution.
func (p Params) SolutionBytes() int { return int(p.L) / 8 }

// ExpectedSolveHashes returns the paper's solve cost ℓ(p) = k·2^(m-1)
// (§4.1). A solve that stops at each search's first m-bit match, as
// Solver and SampleSolveHashes do, costs k·2^m hashes on average: twice
// this value.
func (p Params) ExpectedSolveHashes() float64 {
	return float64(p.K) * math.Exp2(float64(p.M)-1)
}

// ExpectedVerifyHashes returns the expected number of hash operations the
// server performs to verify a solution, d(p) = 1 + k/2 (paper §4).
func (p Params) ExpectedVerifyHashes() float64 {
	return 1 + float64(p.K)/2
}

// GenerateHashes returns the number of hash operations the server performs
// to generate a challenge, g(p) = 1.
func (p Params) GenerateHashes() float64 { return 1 }

// GuessProbability returns the probability that an adversary guesses a full
// solution set blindly: 2^(-k·m).
func (p Params) GuessProbability() float64 {
	return math.Exp2(-float64(p.K) * float64(p.M))
}

// String renders the parameters as "(k=2,m=17,l=64)".
func (p Params) String() string {
	return fmt.Sprintf("(k=%d,m=%d,l=%d)", p.K, p.M, p.L)
}
